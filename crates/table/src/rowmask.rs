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
use crate::lru::LruShard;
use crate::predicate::Clause;
use parking_lot::Mutex;
use std::ops::Range;
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

/// `popcount(a & b)` over two word slices, without materializing the
/// intersection; span-limited consumers run it over sub-slices.
///
/// The word zip is unrolled 8-wide with independent accumulators so
/// the popcounts pipeline instead of serializing on one running sum
/// — the autovectorizer turns each lane into SIMD popcount sequences
/// where the target supports them.
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

impl PredicateMask {
    /// The `AND` of clause masks over a `len`-row domain: a single mask
    /// is shared as it is (a refcount bump, no copy), and no mask at all
    /// is the full mask (the empty conjunction).
    pub fn and_all(masks: &[Arc<RowMask>], len: usize) -> PredicateMask {
        match masks {
            [] => PredicateMask::Owned(RowMask::full(len)),
            [one] => PredicateMask::Shared(one.clone()),
            [a, b, rest @ ..] => {
                let mut acc = a.and(b);
                for m in rest {
                    acc.and_assign(m);
                }
                PredicateMask::Owned(acc)
            }
        }
    }
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

/// Bound on distinct cached clause masks.
///
/// Masks cost `table_len / 8` bytes each; the bound keeps a long-lived
/// plan (e.g. one kept warm in a server's plan cache) from accumulating
/// unbounded bitmaps as NAIVE/MC searches mint new clauses run after
/// run.
const MASK_CACHE_CAP: usize = 1024;

/// A memo of per-clause masks for one table.
///
/// Keyed by [`Clause`] (bit-exact equality), so any candidate predicate
/// sharing a clause with an earlier one reuses its mask. The cache is
/// table-specific by construction — attach one cache per table snapshot
/// and drop it when the table changes. Thread-safe: server workers
/// running one shared plan share its cache behind a mutex (the held
/// section is a hash probe; kernels run outside the lock). Bounded: past
/// 1,024 clauses, inserting a new clause evicts the least-recently-used
/// one ([`LruShard`]), so long-lived plans hold at most
/// `1024 × table_len / 8` bytes of masks.
#[derive(Default)]
pub struct ClauseMaskCache {
    masks: Mutex<LruShard<Clause, Arc<RowMask>>>,
}

impl ClauseMaskCache {
    /// An empty cache.
    pub fn new() -> Self {
        ClauseMaskCache::default()
    }

    /// Number of distinct clauses cached.
    pub fn len(&self) -> usize {
        self.masks.lock().len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.masks.lock().is_empty()
    }

    /// The cached mask of `clause`, computing and caching it with
    /// `build` on a miss; the flag reports whether this lookup hit, so
    /// each consumer of a shared cache can count its own hits.
    /// Concurrent misses may both run `build`; the first mask inserted
    /// wins, keeping every reader on the same `Arc`.
    pub fn get_or_eval(
        &self,
        clause: &Clause,
        build: impl FnOnce() -> Result<RowMask>,
    ) -> Result<(Arc<RowMask>, bool)> {
        if let Some(m) = self.masks.lock().get_mut(clause) {
            return Ok((m.clone(), true));
        }
        let built = Arc::new(build()?);
        let mut masks = self.masks.lock();
        if let Some(m) = masks.get_mut(clause) {
            return Ok((m.clone(), false));
        }
        masks.insert(clause, built.clone(), MASK_CACHE_CAP);
        Ok((built, false))
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
        assert_eq!(intersect_count_words(a.words(), b.words()), 2);
        let mut c = a.clone();
        c.and_assign(&b);
        assert_eq!(c.to_rows(), vec![5, 150]);
    }

    #[test]
    fn and_all_shares_one_mask_and_conjoins_many() {
        let a = Arc::new(RowMask::from_rows(130, &[1, 5, 64, 129]));
        let b = Arc::new(RowMask::from_rows(130, &[5, 64, 100, 129]));
        let c = Arc::new(RowMask::from_rows(130, &[0, 64, 129]));
        assert_eq!(PredicateMask::and_all(&[], 130).to_rows(), (0..130).collect::<Vec<_>>());
        match PredicateMask::and_all(std::slice::from_ref(&a), 130) {
            PredicateMask::Shared(m) => assert!(Arc::ptr_eq(&m, &a)),
            PredicateMask::Owned(_) => panic!("one mask must be shared, not copied"),
        }
        assert_eq!(PredicateMask::and_all(&[a.clone(), b.clone()], 130).to_rows(), [5, 64, 129]);
        assert_eq!(PredicateMask::and_all(&[a, b, c], 130).to_rows(), [64, 129]);
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
        let c = Clause::range(0, 0.0, 1.0);
        let (m1, hit) = cache.get_or_eval(&c, || Ok(RowMask::from_rows(10, &[3]))).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 1);
        let (m2, hit) = cache.get_or_eval(&c, || panic!("must hit")).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&m1, &m2));
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
            let n = intersect_count_words(a.words(), b.words());
            assert_eq!(n, scalar, "len {len}");
            assert_eq!(n, (0..len as u32).filter(|r| r % 15 == 0).count());
        }
    }

    #[test]
    fn cache_evicts_lru_past_capacity() {
        let cache = ClauseMaskCache::new();
        let clause = |i: usize| Clause::range(0, i as f64, i as f64 + 1.0);
        let build = || Ok(RowMask::empty(8));
        for i in 0..MASK_CACHE_CAP {
            cache.get_or_eval(&clause(i), build).unwrap();
        }
        // Touch clause 0 so clause 1 is the LRU when a new one arrives.
        cache.get_or_eval(&clause(0), || panic!("resident")).unwrap();
        cache.get_or_eval(&clause(MASK_CACHE_CAP), build).unwrap();
        assert_eq!(cache.len(), MASK_CACHE_CAP, "bound enforced");
        let (_, hit) = cache.get_or_eval(&clause(0), build).unwrap();
        assert!(hit, "recently touched entry survives");
        let (_, hit) = cache.get_or_eval(&clause(1), build).unwrap();
        assert!(!hit, "LRU entry was evicted");
    }
}
