//! Single-attribute clauses: ranges over continuous attributes and value
//! sets over discrete attributes (§3.1).

use crate::column::Column;
use crate::domain::AttrDomain;
use crate::rowmask::RowMask;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// One clause of a conjunctive predicate. Each attribute appears in at most
/// one clause of a predicate, per the paper's predicate language.
#[derive(Debug, Clone)]
pub enum Clause {
    /// `lo <= attr < hi` over a continuous attribute.
    Range {
        /// Attribute index.
        attr: usize,
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// `attr IN (codes...)` over a discrete attribute (dictionary codes).
    In {
        /// Attribute index.
        attr: usize,
        /// The admitted dictionary codes.
        codes: BTreeSet<u32>,
    },
}

impl Clause {
    /// Builds a range clause.
    pub fn range(attr: usize, lo: f64, hi: f64) -> Self {
        Clause::Range { attr, lo, hi }
    }

    /// Builds a set-containment clause.
    pub fn in_set(attr: usize, codes: impl IntoIterator<Item = u32>) -> Self {
        Clause::In { attr, codes: codes.into_iter().collect() }
    }

    /// The attribute this clause constrains.
    pub fn attr(&self) -> usize {
        match self {
            Clause::Range { attr, .. } | Clause::In { attr, .. } => *attr,
        }
    }

    /// True when no value can satisfy the clause.
    pub fn is_empty(&self) -> bool {
        match self {
            Clause::Range { lo, hi, .. } => lo >= hi,
            Clause::In { codes, .. } => codes.is_empty(),
        }
    }

    /// Does a continuous value satisfy this clause? (Range clauses only.)
    #[inline]
    pub fn matches_num(&self, v: f64) -> bool {
        match self {
            Clause::Range { lo, hi, .. } => *lo <= v && v < *hi,
            Clause::In { .. } => false,
        }
    }

    /// Does a dictionary code satisfy this clause? (In clauses only.)
    #[inline]
    pub fn matches_code(&self, c: u32) -> bool {
        match self {
            Clause::Range { .. } => false,
            Clause::In { codes, .. } => codes.contains(&c),
        }
    }

    /// Evaluates the clause against a whole column as a bitmap kernel:
    /// bit `r` of the result is set iff row `r` satisfies the clause
    /// ([`Clause::matches_num`] / [`Clause::matches_code`]), and no bit
    /// past the column's length is set. Returns `None` when the clause
    /// kind does not match the column kind (range over discrete, set
    /// over continuous), which [`crate::Predicate::mask`] reports as a
    /// type-mismatch error.
    ///
    /// Each kernel walks the raw `&[f64]` / `&[u32]` storage in 64-row
    /// blocks, one word per block, with no branch per row, so the block
    /// loop vectorizes. On x86_64 hosts with AVX2 the kernels run as an
    /// AVX2 instance chosen at runtime; every other host runs the same
    /// bodies at the baseline ISA. Both instances give the same bits.
    pub fn eval_mask(&self, col: &Column) -> Option<RowMask> {
        match col {
            Column::Num(data) => self.eval_nums(data),
            Column::Cat(cat) => self.eval_codes(cat.codes(), cat.cardinality()),
        }
    }

    /// The range kernel of [`Clause::eval_mask`] over raw continuous
    /// values, such as some rows of a column gathered into a slice: bit
    /// `i` is set iff `data[i]` satisfies the clause. `None` for a set
    /// clause.
    pub fn eval_nums(&self, data: &[f64]) -> Option<RowMask> {
        match self {
            Clause::Range { lo, hi, .. } => Some(vectorized(
                #[inline(always)]
                || range_kernel(data, *lo, *hi),
            )),
            Clause::In { .. } => None,
        }
    }

    /// The set kernel of [`Clause::eval_mask`] over raw dictionary codes
    /// of a dictionary of `cardinality` values: bit `i` is set iff
    /// `codes[i]` satisfies the clause. A code at or past `cardinality`
    /// is in no set. `None` for a range clause.
    pub fn eval_codes(&self, codes: &[u32], cardinality: usize) -> Option<RowMask> {
        match self {
            Clause::In { codes: set, .. } => Some(vectorized(
                #[inline(always)]
                || set_kernel(set, codes, cardinality),
            )),
            Clause::Range { .. } => None,
        }
    }

    /// True when every value satisfying `other` also satisfies `self`
    /// (`other ⊆ self`). Both clauses must constrain the same attribute.
    pub fn contains(&self, other: &Clause) -> bool {
        debug_assert_eq!(self.attr(), other.attr());
        match (self, other) {
            (Clause::Range { lo: a, hi: b, .. }, Clause::Range { lo: c, hi: d, .. }) => {
                a <= c && d <= b
            }
            (Clause::In { codes: a, .. }, Clause::In { codes: b, .. }) => b.is_subset(a),
            _ => false,
        }
    }

    /// The conjunction of two clauses on the same attribute, or `None` when
    /// it is unsatisfiable.
    pub fn intersect(&self, other: &Clause) -> Option<Clause> {
        debug_assert_eq!(self.attr(), other.attr());
        match (self, other) {
            (Clause::Range { attr, lo: a, hi: b }, Clause::Range { lo: c, hi: d, .. }) => {
                let (lo, hi) = (a.max(*c), b.min(*d));
                (lo < hi).then_some(Clause::Range { attr: *attr, lo, hi })
            }
            (Clause::In { attr, codes: a }, Clause::In { codes: b, .. }) => {
                let codes: BTreeSet<u32> = a.intersection(b).copied().collect();
                (!codes.is_empty()).then_some(Clause::In { attr: *attr, codes })
            }
            _ => None,
        }
    }

    /// The smallest clause containing both inputs: interval hull for ranges,
    /// set union for discrete clauses (§4.3's minimum bounding box merge).
    pub fn hull(&self, other: &Clause) -> Clause {
        debug_assert_eq!(self.attr(), other.attr());
        match (self, other) {
            (Clause::Range { attr, lo: a, hi: b }, Clause::Range { lo: c, hi: d, .. }) => {
                Clause::Range { attr: *attr, lo: a.min(*c), hi: b.max(*d) }
            }
            (Clause::In { attr, codes: a }, Clause::In { codes: b, .. }) => {
                Clause::In { attr: *attr, codes: a.union(b).copied().collect() }
            }
            // Mixed kinds never occur for a well-typed schema; fall back to
            // self to keep the operation total.
            _ => self.clone(),
        }
    }

    /// The fraction of the attribute's domain this clause admits, in
    /// `[0, 1]`. Used by the Merger's volume estimates (§6.3).
    pub fn fraction(&self, domain: &AttrDomain) -> f64 {
        match self {
            Clause::Range { lo, hi, .. } => range_fraction(*lo, *hi, domain),
            Clause::In { codes, .. } => set_fraction(codes.len(), domain),
        }
    }

    /// `self.intersect(other).map(|c| c.fraction(domain))`, without
    /// building the intersection: range bounds are compared in place and
    /// a set intersection is counted, not collected.
    pub(crate) fn intersect_fraction(&self, other: &Clause, domain: &AttrDomain) -> Option<f64> {
        debug_assert_eq!(self.attr(), other.attr());
        match (self, other) {
            (Clause::Range { lo: a, hi: b, .. }, Clause::Range { lo: c, hi: d, .. }) => {
                let (lo, hi) = (a.max(*c), b.min(*d));
                (lo < hi).then(|| range_fraction(lo, hi, domain))
            }
            (Clause::In { codes: a, .. }, Clause::In { codes: b, .. }) => {
                let n = a.intersection(b).count();
                (n > 0).then(|| set_fraction(n, domain))
            }
            _ => None,
        }
    }

    /// Whether two clauses on the same attribute touch or overlap, so that
    /// their hull introduces no gap. Range clauses may be separated by at
    /// most `eps` (an absolute tolerance); discrete clauses are always
    /// adjacent because value sets carry no geometry.
    pub fn touches(&self, other: &Clause, eps: f64) -> bool {
        debug_assert_eq!(self.attr(), other.attr());
        match (self, other) {
            (Clause::Range { lo: a, hi: b, .. }, Clause::Range { lo: c, hi: d, .. }) => {
                a.max(*c) <= b.min(*d) + eps
            }
            (Clause::In { .. }, Clause::In { .. }) => true,
            _ => false,
        }
    }
}

/// [`Clause::fraction`] of the range `[lo, hi)`. A range over a
/// discrete domain (mismatched kinds) counts as unconstrained.
fn range_fraction(lo: f64, hi: f64, domain: &AttrDomain) -> f64 {
    let AttrDomain::Continuous { lo: dl, hi: dh } = domain else { return 1.0 };
    let span = dh - dl;
    if span <= 0.0 {
        // Degenerate domain: all or nothing, by the range's emptiness.
        if lo >= hi {
            0.0
        } else {
            1.0
        }
    } else {
        ((hi.min(*dh) - lo.max(*dl)) / span).clamp(0.0, 1.0)
    }
}

/// [`Clause::fraction`] of a value set of `n` codes. A set over a
/// continuous domain (mismatched kinds) counts as unconstrained.
fn set_fraction(n: usize, domain: &AttrDomain) -> f64 {
    let AttrDomain::Discrete { cardinality } = domain else { return 1.0 };
    if *cardinality == 0 {
        0.0
    } else {
        (n as f64 / *cardinality as f64).clamp(0.0, 1.0)
    }
}

/// Runs a clause kernel, compiled for AVX2 where the host has it.
///
/// `body` is compiled twice: into `avx2`, with AVX2 enabled, and into
/// this function at the baseline ISA. `body` and every function down to
/// its row loop are `#[inline(always)]`, so the whole loop is inlined
/// into both instances; a call left to the inliner's choice can stay a
/// call to baseline code from inside the AVX2 instance.
fn vectorized<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn avx2<R>(body: impl FnOnce() -> R) -> R {
            body()
        }
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: `avx2` only adds AVX2 instructions to `body`, and
            // `is_x86_feature_detected!("avx2")` has just checked at
            // runtime that this host executes them.
            return unsafe { avx2(body) };
        }
    }
    body()
}

/// Packs `hit` (0 or 1) of every value into a mask, 64 rows per word:
/// each whole 64-row block is one branch-free fold, then the remainder
/// fills the last word's low bits.
#[inline(always)]
fn pack_words<T: Copy>(values: &[T], hit: impl Fn(T) -> u64) -> RowMask {
    let blocks = values.chunks_exact(64);
    let tail = blocks.remainder();
    let mut words = Vec::with_capacity(values.len().div_ceil(64));
    for block in blocks {
        words.push(pack(block, &hit));
    }
    if !tail.is_empty() {
        words.push(pack(tail, &hit));
    }
    RowMask::from_words(words, values.len())
}

/// One word of [`pack_words`]: bit `j` is `hit(rows[j])`.
#[inline(always)]
fn pack<T: Copy>(rows: &[T], hit: &impl Fn(T) -> u64) -> u64 {
    rows.iter().enumerate().fold(0, |w, (j, &v)| w | (hit(v) << j))
}

/// `lo <= v < hi` over a raw continuous column. Both comparisons run
/// for every row (`&`, not `&&`); either fails on a NaN value or bound,
/// as in [`Clause::matches_num`].
#[inline(always)]
fn range_kernel(data: &[f64], lo: f64, hi: f64) -> RowMask {
    pack_words(data, |v| u64::from((lo <= v) & (v < hi)))
}

/// `code ∈ set` over a raw dictionary-code column, by a branch-free
/// lookup instead of a `BTreeSet` probe: `lut[c]` is 1 for an admitted
/// code and 0 otherwise. The table has one entry per code up to the
/// set's largest, but none from `cardinality` on: one zero sentinel
/// follows, and `min` clamps every larger code onto it, so a code at or
/// past the dictionary's size is in no set.
#[inline(always)]
fn set_kernel(set: &BTreeSet<u32>, codes: &[u32], cardinality: usize) -> RowMask {
    let dict = u32::try_from(cardinality).unwrap_or(u32::MAX);
    let sentinel = set.last().map_or(0, |&max| max.saturating_add(1)).min(dict);
    let mut lut = vec![0u32; sentinel as usize + 1];
    for &c in set.range(..sentinel) {
        lut[c as usize] = 1;
    }
    pack_words(codes, |c| u64::from(lut[c.min(sentinel) as usize]))
}

impl PartialEq for Clause {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                Clause::Range { attr: a1, lo: l1, hi: h1 },
                Clause::Range { attr: a2, lo: l2, hi: h2 },
            ) => a1 == a2 && l1.to_bits() == l2.to_bits() && h1.to_bits() == h2.to_bits(),
            (Clause::In { attr: a1, codes: c1 }, Clause::In { attr: a2, codes: c2 }) => {
                a1 == a2 && c1 == c2
            }
            _ => false,
        }
    }
}

impl Eq for Clause {}

impl Hash for Clause {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Clause::Range { attr, lo, hi } => {
                0u8.hash(state);
                attr.hash(state);
                lo.to_bits().hash(state);
                hi.to_bits().hash(state);
            }
            Clause::In { attr, codes } => {
                1u8.hash(state);
                attr.hash(state);
                codes.hash(state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::CatColumn;
    use proptest::prelude::*;

    #[test]
    fn range_matching_is_half_open() {
        let c = Clause::range(0, 10.0, 20.0);
        assert!(c.matches_num(10.0));
        assert!(c.matches_num(19.999));
        assert!(!c.matches_num(20.0));
        assert!(!c.matches_num(9.999));
        assert!(!c.matches_code(3));
    }

    #[test]
    fn in_set_matching() {
        let c = Clause::in_set(1, [2, 5]);
        assert!(c.matches_code(2));
        assert!(c.matches_code(5));
        assert!(!c.matches_code(3));
        assert!(!c.matches_num(2.0));
    }

    #[test]
    fn emptiness() {
        assert!(Clause::range(0, 5.0, 5.0).is_empty());
        assert!(Clause::range(0, 6.0, 5.0).is_empty());
        assert!(!Clause::range(0, 5.0, 6.0).is_empty());
        assert!(Clause::in_set(0, []).is_empty());
        assert!(!Clause::in_set(0, [1]).is_empty());
    }

    #[test]
    fn containment() {
        let big = Clause::range(0, 0.0, 100.0);
        let small = Clause::range(0, 10.0, 20.0);
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        assert!(big.contains(&big));

        let all = Clause::in_set(1, [1, 2, 3]);
        let some = Clause::in_set(1, [2]);
        assert!(all.contains(&some));
        assert!(!some.contains(&all));
    }

    #[test]
    fn intersection() {
        let a = Clause::range(0, 0.0, 15.0);
        let b = Clause::range(0, 10.0, 30.0);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, Clause::range(0, 10.0, 15.0));
        assert!(a.intersect(&Clause::range(0, 20.0, 30.0)).is_none());

        let x = Clause::in_set(1, [1, 2]);
        let y = Clause::in_set(1, [2, 3]);
        assert_eq!(x.intersect(&y).unwrap(), Clause::in_set(1, [2]));
        assert!(x.intersect(&Clause::in_set(1, [9])).is_none());
    }

    #[test]
    fn hull_contains_both() {
        let a = Clause::range(0, 0.0, 10.0);
        let b = Clause::range(0, 20.0, 30.0);
        let h = a.hull(&b);
        assert!(h.contains(&a) && h.contains(&b));
        assert_eq!(h, Clause::range(0, 0.0, 30.0));

        let x = Clause::in_set(1, [1]);
        let y = Clause::in_set(1, [4]);
        assert_eq!(x.hull(&y), Clause::in_set(1, [1, 4]));
    }

    #[test]
    fn fraction_of_domain() {
        let d = AttrDomain::Continuous { lo: 0.0, hi: 100.0 };
        assert!((Clause::range(0, 25.0, 75.0).fraction(&d) - 0.5).abs() < 1e-12);
        // Clauses wider than the domain clamp to 1.
        assert_eq!(Clause::range(0, -100.0, 500.0).fraction(&d), 1.0);
        let dd = AttrDomain::Discrete { cardinality: 4 };
        assert_eq!(Clause::in_set(0, [1, 2]).fraction(&dd), 0.5);
        assert_eq!(Clause::in_set(0, []).fraction(&dd), 0.0);
    }

    #[test]
    fn touches_with_tolerance() {
        let a = Clause::range(0, 0.0, 10.0);
        let b = Clause::range(0, 10.0, 20.0);
        let c = Clause::range(0, 10.5, 20.0);
        assert!(a.touches(&b, 0.0));
        assert!(!a.touches(&c, 0.1));
        assert!(a.touches(&c, 1.0));
        assert!(Clause::in_set(1, [1]).touches(&Clause::in_set(1, [9]), 0.0));
    }

    /// SplitMix64, seeded per case.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }
    }

    /// Values and bounds for the range kernel: NaNs, infinities, signed
    /// zeros, subnormals, extremes, and a few small numbers to tie with.
    const EDGES: [f64; 16] = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1.0,
        -1.0,
        1.5,
        2.0,
        -2.0,
    ];

    /// Checks `mask` row by row against `matches` over `len` rows, and
    /// that no bit past `len` is set.
    fn assert_rows(mask: &RowMask, len: usize, matches: impl Fn(usize) -> bool, what: &str) {
        assert_eq!((mask.len(), mask.words().len()), (len, len.div_ceil(64)), "{what}");
        for r in 0..len {
            assert_eq!(mask.contains(r as u32), matches(r), "{what}: row {r} of {len}");
        }
        if !len.is_multiple_of(64) {
            assert_eq!(mask.words()[len / 64] >> (len % 64), 0, "{what}: bits past {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Both instances of the range kernel — the plain body, run here
        /// at the baseline ISA, and the dispatched `eval_mask` — agree
        /// with `matches_num` on every length from 0 to 300 (every
        /// remainder mod 64 and the multiples), with values tied to the
        /// bounds and bounds that are NaN, infinite or `lo >= hi`.
        #[test]
        fn range_kernels_match_matches_num(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            for len in 0..=300 {
                let (mut lo, mut hi) = (rng.pick(&EDGES), rng.pick(&EDGES));
                if rng.below(2) == 0 && hi < lo {
                    (lo, hi) = (hi, lo);
                }
                let data: Vec<f64> = (0..len)
                    .map(|_| match rng.below(4) {
                        0 => lo,
                        1 => hi,
                        2 => rng.pick(&EDGES),
                        _ => (rng.next() >> 11) as f64 / (1u64 << 51) as f64 - 2.0,
                    })
                    .collect();
                let clause = Clause::range(0, lo, hi);
                let col = Column::Num(data.clone());
                let dispatched = clause.eval_mask(&col).expect("range over a numeric column");
                let what = format!("[{lo}, {hi})");
                assert_rows(&range_kernel(&data, lo, hi), len, |r| clause.matches_num(data[r]), &what);
                assert_rows(&dispatched, len, |r| clause.matches_num(data[r]), &what);
                assert!(Clause::in_set(0, [0]).eval_mask(&col).is_none());
            }
        }

        /// The same for the set kernel and `matches_code`: dictionaries
        /// of 0 to 130 values, columns that leave the top codes unused,
        /// and sets that are empty, `{0}`, or hold codes above the
        /// column's largest code, above the dictionary's size, or
        /// `u32::MAX`.
        #[test]
        fn set_kernels_match_matches_code(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            for len in 0..=300 {
                let dict = if len == 0 { rng.below(3) } else { 1 + rng.below(130) };
                let used = if dict == 0 { 0 } else { 1 + rng.below(dict) };
                let codes: Vec<u32> = (0..len).map(|_| rng.below(used) as u32).collect();
                let set: BTreeSet<u32> = match rng.below(4) {
                    0 => BTreeSet::new(),
                    1 => BTreeSet::from([0]),
                    _ => (0..1 + rng.below(8))
                        .map(|_| match rng.below(4) {
                            0 => (used + rng.below(dict - used + 1)) as u32,
                            1 => (dict + rng.below(100)) as u32,
                            2 => u32::MAX - rng.below(2) as u32,
                            _ => rng.below(used.max(1)) as u32,
                        })
                        .collect(),
                };
                let names = (0..dict).map(|i| format!("v{i}")).collect();
                let cat = CatColumn::from_parts(codes.clone(), names).expect("codes below dict");
                let clause = Clause::In { attr: 0, codes: set.clone() };
                let plain = set_kernel(&set, cat.codes(), cat.cardinality());
                let col = Column::Cat(cat);
                let dispatched = clause.eval_mask(&col).expect("set over a discrete column");
                let what = format!("{set:?} over {dict} values");
                assert_rows(&plain, len, |r| clause.matches_code(codes[r]), &what);
                assert_rows(&dispatched, len, |r| clause.matches_code(codes[r]), &what);
                assert!(Clause::range(0, 0.0, 1.0).eval_mask(&col).is_none());
            }
        }
    }

    /// The slice kernels select what the column kernels select, and a
    /// code at or past the dictionary's size is in no set, even one that
    /// lists it.
    #[test]
    fn slice_kernels_agree_and_skip_out_of_dictionary_codes() {
        let mut rng = Rng(7);
        for len in [0, 1, 63, 64, 65, 200] {
            let data: Vec<f64> = (0..len).map(|_| rng.pick(&EDGES)).collect();
            let range = Clause::range(0, rng.pick(&EDGES), rng.pick(&EDGES));
            assert_eq!(range.eval_nums(&data), range.eval_mask(&Column::Num(data.clone())));
            assert!(range.eval_codes(&[], 0).is_none());
            let dict = 1 + rng.below(10);
            let codes: Vec<u32> = (0..len).map(|_| rng.below(dict) as u32).collect();
            let names = (0..dict).map(|i| format!("v{i}")).collect();
            let col = Column::Cat(CatColumn::from_parts(codes.clone(), names).unwrap());
            let set = Clause::in_set(0, (0..dict as u32 + 2).chain([u32::MAX]));
            assert_eq!(set.eval_codes(&codes, dict), set.eval_mask(&col));
            assert!(set.eval_nums(&[]).is_none());
            let outside: Vec<u32> = (0..len).map(|i| [dict as u32, u32::MAX][i % 2]).collect();
            assert!(!set.eval_codes(&outside, dict).unwrap().any(), "{len} rows");
        }
    }

    #[test]
    fn eq_and_hash_use_bit_patterns() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Clause::range(0, 1.0, 2.0));
        assert!(s.contains(&Clause::range(0, 1.0, 2.0)));
        assert!(!s.contains(&Clause::range(0, 1.0, 2.0000001)));
        assert!(!s.contains(&Clause::range(1, 1.0, 2.0)));
    }
}
