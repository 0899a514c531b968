//! Bitmap row sets: the columnar execution substrate predicate
//! evaluation compiles to.
//!
//! A [`RowMask`] is a fixed-width bitmap over a table's row ids — one
//! bit per row, packed into 64-bit words. Predicate evaluation builds
//! one mask per *clause* with a columnar kernel
//! ([`crate::Clause::eval_mask`]), which fills one word per 64-row
//! block with no branch per row and runs as an AVX2 instance on hosts
//! that have AVX2, and combines clauses with word-wise `AND`; consumers
//! then read the result with `popcount` (counts), a selection-vector
//! iterator (row ids), or word-at-a-time zips against other masks
//! (masked aggregate folds). The [`ClauseMaskCache`] memoizes
//! per-clause masks so sibling candidate predicates that share clauses —
//! a DT re-score level, an MC level, a NAIVE enumeration round — pay for
//! each distinct clause once per table instead of once per candidate.

use crate::error::Result;
use crate::predicate::Clause;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A bitmap over the row ids `0..len` of one table.
///
/// Bits at positions `>= len` are always zero, so word-wise operations
/// (`AND`, popcount) need no edge handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMask {
    words: Vec<u64>,
    len: usize,
}

impl RowMask {
    /// The empty mask over `len` rows.
    pub fn empty(len: usize) -> Self {
        RowMask { words: vec![0; len.div_ceil(64)], len }
    }

    /// The full mask over `len` rows (every row set).
    pub fn full(len: usize) -> Self {
        let mut words = vec![!0u64; len.div_ceil(64)];
        Self::trim(&mut words, len);
        RowMask { words, len }
    }

    /// Builds a mask over `len` rows with exactly `rows` set.
    pub fn from_rows(len: usize, rows: &[u32]) -> Self {
        let mut m = RowMask::empty(len);
        for &r in rows {
            m.insert(r);
        }
        m
    }

    /// Wraps raw words (used by the per-clause kernels). Bits past `len`
    /// must already be clear.
    pub(crate) fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        Self::trim(&mut words, len);
        RowMask { words, len }
    }

    fn trim(words: &mut [u64], len: usize) {
        let rem = len % 64;
        if rem != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Number of rows in the mask's domain (not the number of set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the domain holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets row `r`. Panics when `r` is outside the domain (a set bit
    /// past `len` would silently break the word-wise invariants).
    pub fn insert(&mut self, r: u32) {
        assert!((r as usize) < self.len, "row {r} out of mask domain {}", self.len);
        self.words[(r >> 6) as usize] |= 1u64 << (r & 63);
    }

    /// True when row `r` is set. Panics when `r` is outside the domain.
    #[inline]
    pub fn contains(&self, r: u32) -> bool {
        (self.words[(r >> 6) as usize] >> (r & 63)) & 1 == 1
    }

    /// Number of set rows (popcount).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when at least one row is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// The packed 64-bit words, low rows first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The smallest word range containing every set bit (empty range for
    /// an all-zero mask). Consumers zip only this span.
    pub fn nonzero_word_span(&self) -> Range<usize> {
        let first = self.words.iter().position(|&w| w != 0);
        match first {
            Some(f) => {
                let l = self.words.iter().rposition(|&w| w != 0).expect("some word is nonzero");
                f..l + 1
            }
            None => 0..0,
        }
    }

    /// `self ∧ other` as a new mask. Both masks must share a domain.
    pub fn and(&self, other: &RowMask) -> RowMask {
        debug_assert_eq!(self.len, other.len);
        RowMask {
            words: self.words.iter().zip(&other.words).map(|(a, b)| a & b).collect(),
            len: self.len,
        }
    }

    /// In-place `self ∧= other`.
    pub fn and_assign(&mut self, other: &RowMask) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self ∧ ¬other` as a new mask.
    pub fn and_not(&self, other: &RowMask) -> RowMask {
        debug_assert_eq!(self.len, other.len);
        RowMask {
            words: self.words.iter().zip(&other.words).map(|(a, b)| a & !b).collect(),
            len: self.len,
        }
    }

    /// `|self ∧ other|` without materializing the intersection.
    ///
    /// The word zip is unrolled 8-wide with independent accumulators so
    /// the popcounts pipeline instead of serializing on one running sum
    /// — the autovectorizer turns each lane into SIMD popcount sequences
    /// where the target supports them.
    pub fn intersect_count(&self, other: &RowMask) -> usize {
        debug_assert_eq!(self.len, other.len);
        intersect_count_words(&self.words, &other.words)
    }

    /// Iterates the set rows in ascending order (a selection vector).
    pub fn iter(&self) -> RowMaskIter<'_> {
        RowMaskIter { words: &self.words, wi: 0, cur: self.words.first().copied().unwrap_or(0) }
    }

    /// The set rows as a materialized selection vector.
    pub fn to_rows(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        out.extend(self.iter());
        out
    }
}

/// 8-way unrolled `popcount(a & b)` over two word slices (the kernel
/// behind [`RowMask::intersect_count`], shared so span-limited consumers
/// can run it over sub-slices).
pub fn intersect_count_words(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0usize; 8];
    let (ca, ra) = a.split_at(a.len() - a.len() % 8);
    let (cb, rb) = b.split_at(ca.len());
    for (wa, wb) in ca.chunks_exact(8).zip(cb.chunks_exact(8)) {
        for lane in 0..8 {
            acc[lane] += (wa[lane] & wb[lane]).count_ones() as usize;
        }
    }
    let mut n: usize = acc.iter().sum();
    for (wa, wb) in ra.iter().zip(rb) {
        n += (wa & wb).count_ones() as usize;
    }
    n
}

/// 8-way unrolled `popcount(a & b & c)` over three word slices — the
/// three-operand sibling of [`intersect_count_words`], for counting a
/// two-clause conjunction against a group mask in one pass without
/// materializing the conjunction bitmap.
pub fn intersect3_count_words(a: &[u64], b: &[u64], c: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    let mut acc = [0usize; 8];
    let head = a.len() - a.len() % 8;
    let (ca, ra) = a.split_at(head);
    let (cb, rb) = b.split_at(head);
    let (cc, rc) = c.split_at(head);
    for ((wa, wb), wc) in ca.chunks_exact(8).zip(cb.chunks_exact(8)).zip(cc.chunks_exact(8)) {
        for lane in 0..8 {
            acc[lane] += (wa[lane] & wb[lane] & wc[lane]).count_ones() as usize;
        }
    }
    let mut n: usize = acc.iter().sum();
    for ((wa, wb), wc) in ra.iter().zip(rb).zip(rc) {
        n += (wa & wb & wc).count_ones() as usize;
    }
    n
}

impl<'a> IntoIterator for &'a RowMask {
    type Item = u32;
    type IntoIter = RowMaskIter<'a>;
    fn into_iter(self) -> RowMaskIter<'a> {
        self.iter()
    }
}

/// Ascending iterator over a [`RowMask`]'s set rows.
pub struct RowMaskIter<'a> {
    words: &'a [u64],
    wi: usize,
    cur: u64,
}

impl Iterator for RowMaskIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.cur == 0 {
            self.wi += 1;
            if self.wi >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.wi];
        }
        let bit = self.cur.trailing_zeros();
        self.cur &= self.cur - 1;
        Some((self.wi as u32) << 6 | bit)
    }
}

/// Either a cached (shared) or a freshly combined predicate mask.
///
/// Single-clause predicates borrow their clause's cached mask with a
/// refcount bump; multi-clause predicates own the `AND` of their
/// clauses' masks. Dereferences to [`RowMask`] either way.
pub enum PredicateMask {
    /// A cache-shared clause mask (single-clause predicates).
    Shared(Arc<RowMask>),
    /// An owned conjunction of clause masks.
    Owned(RowMask),
}

impl std::ops::Deref for PredicateMask {
    type Target = RowMask;
    fn deref(&self) -> &RowMask {
        match self {
            PredicateMask::Shared(m) => m,
            PredicateMask::Owned(m) => m,
        }
    }
}

/// Default bound on distinct cached clause masks.
///
/// Masks cost `table_len / 8` bytes each; the bound keeps a long-lived
/// plan (e.g. one kept warm in a server's plan cache) from accumulating
/// unbounded bitmaps as NAIVE/MC searches mint new clauses run after
/// run.
const DEFAULT_MASK_CACHE_CAP: usize = 1024;

/// Recency-stamped cache entries behind the lock.
#[derive(Default)]
struct MaskEntries {
    map: HashMap<Clause, (Arc<RowMask>, u64)>,
    tick: u64,
}

/// A memo of per-clause masks for one table.
///
/// Keyed by [`Clause`] (bit-exact equality), so any candidate predicate
/// sharing a clause with an earlier one reuses its mask. The cache is
/// table-specific by construction — attach one cache per table snapshot
/// and drop it when the table changes. Thread-safe: server workers
/// running one shared plan share its cache behind a mutex (the held
/// section is a hash probe; kernels run outside the lock). Bounded: past
/// the capacity, inserting a new clause evicts the least-recently-used
/// one, so long-lived plans hold at most `capacity × table_len / 8`
/// bytes of masks.
pub struct ClauseMaskCache {
    entries: Mutex<MaskEntries>,
    hits: AtomicU64,
    cap: usize,
}

impl Default for ClauseMaskCache {
    fn default() -> Self {
        ClauseMaskCache::with_capacity(0)
    }
}

impl ClauseMaskCache {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        ClauseMaskCache::default()
    }

    /// An empty cache holding at most `cap` clause masks, evicting the
    /// least recently used past that (`0` = the default bound).
    pub fn with_capacity(cap: usize) -> Self {
        ClauseMaskCache {
            entries: Mutex::new(MaskEntries::default()),
            hits: AtomicU64::new(0),
            cap: if cap == 0 { DEFAULT_MASK_CACHE_CAP } else { cap },
        }
    }

    /// The enforced capacity bound in clauses.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of distinct clauses cached.
    pub fn len(&self) -> usize {
        self.entries.lock().map.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().map.is_empty()
    }

    /// Number of lookups answered from the cache since construction or
    /// the last [`ClauseMaskCache::clear`] (per-consumer attribution is
    /// the caller's job, via the hit flag of
    /// [`ClauseMaskCache::get_or_eval_flagged`]).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Drops every cached mask *and* resets the hit counter. A clear is
    /// how a plan rebind recycles a cache for a new table snapshot, so
    /// both entries and hits must restart from zero — carrying the old
    /// count over made warm-slide diagnostics overcount hits that
    /// belonged to the previous generation.
    pub fn clear(&self) {
        self.entries.lock().map.clear();
        self.hits.store(0, Ordering::Relaxed);
    }

    /// The cached mask of `clause`, computing and caching it with
    /// `build` on a miss; the flag reports whether this lookup hit.
    /// Concurrent misses may both run `build`; one result wins, keeping
    /// every reader on the same `Arc`.
    pub fn get_or_eval_flagged(
        &self,
        clause: &Clause,
        build: impl FnOnce() -> Result<RowMask>,
    ) -> Result<(Arc<RowMask>, bool)> {
        {
            let mut e = self.entries.lock();
            e.tick += 1;
            let tick = e.tick;
            if let Some((m, stamp)) = e.map.get_mut(clause) {
                *stamp = tick;
                let m = m.clone();
                drop(e);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((m, true));
            }
        }
        let built = Arc::new(build()?);
        let mut e = self.entries.lock();
        e.tick += 1;
        let tick = e.tick;
        if !e.map.contains_key(clause) && e.map.len() >= self.cap {
            // Lazy LRU: evict the stalest entry. The O(len) scan is
            // noise next to the full-column kernel pass that got us
            // here, and it only runs at capacity.
            if let Some(lru) = e.map.iter().min_by_key(|(_, (_, s))| *s).map(|(k, _)| k.clone()) {
                e.map.remove(&lru);
            }
        }
        let m = e.map.entry(clause.clone()).or_insert((built, tick)).0.clone();
        Ok((m, false))
    }

    /// [`ClauseMaskCache::get_or_eval_flagged`] without the hit flag.
    pub fn get_or_eval(
        &self,
        clause: &Clause,
        build: impl FnOnce() -> Result<RowMask>,
    ) -> Result<Arc<RowMask>> {
        self.get_or_eval_flagged(clause, build).map(|(m, _)| m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = RowMask::empty(70);
        assert_eq!(e.len(), 70);
        assert_eq!(e.count_ones(), 0);
        assert!(!e.any());
        let f = RowMask::full(70);
        assert_eq!(f.count_ones(), 70);
        assert!(f.contains(0) && f.contains(69));
        // Bits past the domain stay clear.
        assert_eq!(f.words()[1] >> 6, 0);
        assert!(RowMask::empty(0).words().is_empty());
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = [1u32, 63, 64, 127, 128];
        let m = RowMask::from_rows(130, &rows);
        assert_eq!(m.count_ones(), rows.len());
        assert_eq!(m.to_rows(), rows);
        for &r in &rows {
            assert!(m.contains(r));
        }
        assert!(!m.contains(0) && !m.contains(65));
    }

    #[test]
    fn boolean_algebra() {
        let a = RowMask::from_rows(200, &[1, 5, 100, 150]);
        let b = RowMask::from_rows(200, &[5, 150, 199]);
        assert_eq!(a.and(&b).to_rows(), vec![5, 150]);
        assert_eq!(a.and_not(&b).to_rows(), vec![1, 100]);
        assert_eq!(a.intersect_count(&b), 2);
        let mut c = a.clone();
        c.and_assign(&b);
        assert_eq!(c.to_rows(), vec![5, 150]);
    }

    #[test]
    fn word_span_brackets_set_bits() {
        assert_eq!(RowMask::empty(300).nonzero_word_span(), 0..0);
        let m = RowMask::from_rows(300, &[70, 71, 190]);
        assert_eq!(m.nonzero_word_span(), 1..3);
        let full = RowMask::full(300);
        assert_eq!(full.nonzero_word_span(), 0..5);
    }

    #[test]
    fn iterator_is_ascending_and_complete() {
        let mut rows: Vec<u32> = (0..=256).step_by(3).collect();
        let m = RowMask::from_rows(257, &rows);
        rows.sort_unstable();
        assert_eq!(m.iter().collect::<Vec<_>>(), rows);
    }

    #[test]
    fn cache_hits_and_reuse() {
        let cache = ClauseMaskCache::new();
        assert_eq!(cache.capacity(), 1024);
        let c = Clause::range(0, 0.0, 1.0);
        let (m1, hit) = cache.get_or_eval_flagged(&c, || Ok(RowMask::from_rows(10, &[3]))).unwrap();
        assert!(!hit);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 1);
        let (m2, hit) = cache.get_or_eval_flagged(&c, || panic!("must hit")).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!(cache.hits(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0, "clear starts a new counting generation");
    }

    #[test]
    fn intersect_count_unrolled_matches_scalar_on_all_lengths() {
        // Cover every remainder class of the 8-word unroll, including
        // lengths shorter than one chunk.
        for words in 0..20usize {
            let len = words * 64 + 17;
            let rows_a: Vec<u32> = (0..len as u32).filter(|r| r % 3 == 0).collect();
            let rows_b: Vec<u32> = (0..len as u32).filter(|r| r % 5 == 0).collect();
            let a = RowMask::from_rows(len, &rows_a);
            let b = RowMask::from_rows(len, &rows_b);
            let scalar: usize =
                a.words().iter().zip(b.words()).map(|(x, y)| (x & y).count_ones() as usize).sum();
            assert_eq!(a.intersect_count(&b), scalar, "len {len}");
            assert_eq!(a.intersect_count(&b), (0..len as u32).filter(|r| r % 15 == 0).count());
        }
    }

    #[test]
    fn intersect3_unrolled_matches_scalar_on_all_lengths() {
        for words in 0..20usize {
            let len = words * 64 + 17;
            let rows_a: Vec<u32> = (0..len as u32).filter(|r| r % 2 == 0).collect();
            let rows_b: Vec<u32> = (0..len as u32).filter(|r| r % 3 == 0).collect();
            let rows_c: Vec<u32> = (0..len as u32).filter(|r| r % 5 == 0).collect();
            let a = RowMask::from_rows(len, &rows_a);
            let b = RowMask::from_rows(len, &rows_b);
            let c = RowMask::from_rows(len, &rows_c);
            assert_eq!(
                intersect3_count_words(a.words(), b.words(), c.words()),
                (0..len as u32).filter(|r| r % 30 == 0).count(),
                "len {len}"
            );
        }
    }

    #[test]
    fn cache_evicts_lru_past_capacity() {
        let cache = ClauseMaskCache::with_capacity(4);
        let clause = |i: usize| Clause::range(0, i as f64, i as f64 + 1.0);
        for i in 0..4 {
            cache.get_or_eval(&clause(i), || Ok(RowMask::empty(8))).unwrap();
        }
        // Touch clause 0 so clause 1 is the LRU when 4 arrives.
        cache.get_or_eval(&clause(0), || panic!("resident")).unwrap();
        cache.get_or_eval(&clause(4), || Ok(RowMask::empty(8))).unwrap();
        assert_eq!(cache.len(), 4, "bound enforced");
        let (_, hit) = cache.get_or_eval_flagged(&clause(0), || Ok(RowMask::empty(8))).unwrap();
        assert!(hit, "recently touched entry survives");
        let (_, hit) = cache.get_or_eval_flagged(&clause(1), || Ok(RowMask::empty(8))).unwrap();
        assert!(!hit, "LRU entry was evicted");
    }
}
