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
    /// bit `r` of the result is set iff row `r` satisfies the clause.
    /// Returns `None` when the clause kind does not match the column
    /// kind (range over discrete, set over continuous) — the columnar
    /// equivalent of the matcher's type-mismatch error.
    ///
    /// The loops are branch-light and enum-dispatch-free: one pass over
    /// the raw `&[f64]` / `&[u32]` storage packing 64 rows per word.
    pub fn eval_mask(&self, col: &Column) -> Option<RowMask> {
        match (self, col) {
            (Clause::Range { lo, hi, .. }, Column::Num(data)) => {
                Some(eval_range_mask(data, *lo, *hi))
            }
            (Clause::In { codes, .. }, Column::Cat(cat)) => Some(eval_in_mask(codes, cat.codes())),
            _ => None,
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

/// `lo <= v < hi` over a raw continuous column, 64 rows per word.
fn eval_range_mask(data: &[f64], lo: f64, hi: f64) -> RowMask {
    let mut words = vec![0u64; data.len().div_ceil(64)];
    for (word, chunk) in words.iter_mut().zip(data.chunks(64)) {
        let mut bits = 0u64;
        for (j, &v) in chunk.iter().enumerate() {
            bits |= ((lo <= v && v < hi) as u64) << j;
        }
        *word = bits;
    }
    RowMask::from_words(words, data.len())
}

/// `code ∈ set` over a raw dictionary-code column. The admitted codes
/// are expanded into a small bitmap first so the row loop is a pair of
/// shifts instead of a `BTreeSet` probe.
fn eval_in_mask(set: &BTreeSet<u32>, codes: &[u32]) -> RowMask {
    let max = set.iter().next_back().copied().unwrap_or(0);
    let mut lut = vec![0u64; (max as usize >> 6) + 1];
    for &c in set {
        lut[(c >> 6) as usize] |= 1u64 << (c & 63);
    }
    let mut words = vec![0u64; codes.len().div_ceil(64)];
    for (word, chunk) in words.iter_mut().zip(codes.chunks(64)) {
        let mut bits = 0u64;
        for (j, &c) in chunk.iter().enumerate() {
            let hit = if c <= max { (lut[(c >> 6) as usize] >> (c & 63)) & 1 } else { 0 };
            bits |= hit << j;
        }
        *word = bits;
    }
    RowMask::from_words(words, codes.len())
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

    #[test]
    fn eval_mask_matches_scalar_semantics() {
        // 70 rows so the kernels cross a word boundary.
        let data: Vec<f64> = (0..70).map(|i| i as f64).collect();
        let col = Column::Num(data.clone());
        let c = Clause::range(0, 10.0, 20.0);
        let m = c.eval_mask(&col).unwrap();
        for (r, &v) in data.iter().enumerate() {
            assert_eq!(m.contains(r as u32), c.matches_num(v), "row {r}");
        }
        assert!(c.eval_mask(&Column::Cat(crate::column::CatColumn::new())).is_none());

        let mut cat = crate::column::CatColumn::new();
        for i in 0..70 {
            cat.push(["a", "b", "c"][i % 3]);
        }
        let codes = cat.codes().to_vec();
        let col = Column::Cat(cat);
        let c = Clause::in_set(0, [0, 2]);
        let m = c.eval_mask(&col).unwrap();
        for (r, &code) in codes.iter().enumerate() {
            assert_eq!(m.contains(r as u32), c.matches_code(code), "row {r}");
        }
        // Codes above the set's maximum never match (guarded LUT probe).
        let narrow = Clause::in_set(0, [0]);
        let m = narrow.eval_mask(&col).unwrap();
        for (r, &code) in codes.iter().enumerate() {
            assert_eq!(m.contains(r as u32), code == 0, "row {r}");
        }
        assert!(narrow.eval_mask(&Column::Num(vec![1.0])).is_none());
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
