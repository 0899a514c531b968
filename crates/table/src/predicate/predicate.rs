//! Conjunctive predicates: the paper's explanation language.

use crate::domain::AttrDomain;
use crate::error::Result;
use crate::predicate::clause::Clause;
use crate::rowmask::{ClauseMaskCache, PredicateMask, RowMask};
use crate::table::Table;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;

/// A conjunction of per-attribute clauses; each attribute appears in at
/// most one clause. The empty conjunction matches every tuple.
///
/// The clauses sit in one `Vec`, sorted by attribute and allocated at
/// exactly their number: a predicate has a handful of clauses, and the
/// caches, memos and trees that hold thousands of predicates pay one
/// small block per predicate. Equality and hashing compare the sorted
/// clauses, so predicates built from the same clauses in any order are
/// equal and hash alike.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Predicate {
    /// Sorted by [`Clause::attr`], at most one clause per attribute.
    clauses: Vec<Clause>,
}

/// The clauses of two predicates side by side, one item per attribute
/// either constrains, in attribute order.
fn zip<'a>(
    a: &'a Predicate,
    b: &'a Predicate,
) -> impl Iterator<Item = (Option<&'a Clause>, Option<&'a Clause>)> {
    let (mut a, mut b) = (a.clauses.iter().peekable(), b.clauses.iter().peekable());
    std::iter::from_fn(move || {
        let order = match (a.peek(), b.peek()) {
            (None, None) => return None,
            (Some(x), Some(y)) => x.attr().cmp(&y.attr()),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
        };
        Some(match order {
            Ordering::Less => (a.next(), None),
            Ordering::Equal => (a.next(), b.next()),
            Ordering::Greater => (None, b.next()),
        })
    })
}

impl Predicate {
    /// The always-true predicate (no clauses).
    pub fn all() -> Self {
        Predicate::default()
    }

    /// Wraps clauses already sorted by attribute, one per attribute,
    /// releasing any spare capacity.
    fn from_sorted(mut clauses: Vec<Clause>) -> Self {
        debug_assert!(clauses.windows(2).all(|w| w[0].attr() < w[1].attr()));
        clauses.shrink_to_fit();
        Predicate { clauses }
    }

    /// Where the clause on `attr` is (`Ok`), or where it would go (`Err`).
    fn find(&self, attr: usize) -> std::result::Result<usize, usize> {
        self.clauses.binary_search_by_key(&attr, Clause::attr)
    }

    /// A copy with the clauses at `at` replaced by `with`, allocated at
    /// exactly its length.
    fn splice(&self, at: Range<usize>, with: Option<Clause>) -> Self {
        let mut clauses =
            Vec::with_capacity(self.clauses.len() - at.len() + usize::from(with.is_some()));
        clauses.extend_from_slice(&self.clauses[..at.start]);
        clauses.extend(with);
        clauses.extend_from_slice(&self.clauses[at.end..]);
        Predicate { clauses }
    }

    /// Builds a predicate from clauses; later clauses on the same attribute
    /// are intersected with earlier ones (conjunction semantics). Returns
    /// `None` when the conjunction is unsatisfiable.
    pub fn conjunction(clauses: impl IntoIterator<Item = Clause>) -> Option<Self> {
        clauses.into_iter().try_fold(Predicate::all(), |p, c| p.and_clause(c))
    }

    /// Adds one clause conjunctively; `None` when unsatisfiable.
    #[must_use]
    pub fn and_clause(&self, clause: Clause) -> Option<Self> {
        if clause.is_empty() {
            return None;
        }
        Some(match self.find(clause.attr()) {
            Ok(i) => self.splice(i..i + 1, Some(self.clauses[i].intersect(&clause)?)),
            Err(i) => self.splice(i..i, Some(clause)),
        })
    }

    /// Replaces (or inserts) the clause on `clause.attr()` unconditionally.
    #[must_use]
    pub fn with_clause(&self, clause: Clause) -> Self {
        match self.find(clause.attr()) {
            Ok(i) => self.splice(i..i + 1, Some(clause)),
            Err(i) => self.splice(i..i, Some(clause)),
        }
    }

    /// Removes the clause on `attr`, widening the predicate.
    #[must_use]
    pub fn without_attr(&self, attr: usize) -> Self {
        match self.find(attr) {
            Ok(i) => self.splice(i..i + 1, None),
            Err(_) => self.clone(),
        }
    }

    /// The clause on `attr`, if any.
    pub fn clause(&self, attr: usize) -> Option<&Clause> {
        self.find(attr).ok().map(|i| &self.clauses[i])
    }

    /// Iterates clauses in attribute order.
    pub fn clauses(&self) -> impl Iterator<Item = &Clause> {
        self.clauses.iter()
    }

    /// The set of constrained attributes.
    pub fn attrs(&self) -> impl Iterator<Item = usize> + '_ {
        self.clauses.iter().map(Clause::attr)
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// True for the always-true predicate.
    pub fn is_all(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The type-mismatch error for a clause bound against the wrong
    /// column kind, named after the table's schema.
    fn type_mismatch(table: &Table, clause: &Clause) -> crate::error::TableError {
        let attr = clause.attr();
        let name = table
            .schema()
            .field(attr)
            .map(|f| f.name().to_owned())
            .unwrap_or_else(|_| format!("attr{attr}"));
        crate::error::TableError::TypeMismatch {
            attr: name,
            expected: match clause {
                Clause::Range { .. } => "continuous",
                Clause::In { .. } => "discrete",
            },
        }
    }

    /// Each clause's mask against `table`, in attribute order, served
    /// from (and recorded in) `cache`, written into `out` (cleared
    /// first); returns how many of these lookups the cache answered, so
    /// a consumer sharing the cache with others can attribute hits to
    /// itself. A miss runs the clause's column kernel
    /// ([`Clause::eval_mask`]).
    pub fn clause_masks(
        &self,
        table: &Table,
        cache: &ClauseMaskCache,
        out: &mut Vec<Arc<RowMask>>,
    ) -> Result<u64> {
        out.clear();
        let mut hits = 0u64;
        for clause in &self.clauses {
            let (m, hit) = cache.get_or_eval(clause, || {
                let col = table.column(clause.attr())?;
                clause.eval_mask(col).ok_or_else(|| Predicate::type_mismatch(table, clause))
            })?;
            hits += hit as u64;
            out.push(m);
        }
        Ok(hits)
    }

    /// Evaluates the predicate against `table` as a bitmap: the `AND` of
    /// its clauses' cached masks ([`PredicateMask::and_all`]).
    /// Single-clause predicates share the cached clause mask (refcount
    /// bump, no copy); the empty conjunction is the full mask.
    ///
    /// This is the one evaluation path — sibling candidates that share
    /// clauses (a DT re-score level, an MC level, a NAIVE round) pay each
    /// distinct clause's column pass once per `cache` lifetime, and a
    /// one-shot caller passes a fresh cache. Bit `r` is set iff row `r`
    /// satisfies every clause ([`Clause::matches_num`] /
    /// [`Clause::matches_code`]).
    pub fn mask(&self, table: &Table, cache: &ClauseMaskCache) -> Result<PredicateMask> {
        let mut masks = Vec::with_capacity(self.clauses.len());
        self.clause_masks(table, cache, &mut masks)?;
        Ok(PredicateMask::and_all(&masks, table.len()))
    }

    /// Selects, from `rows`, the ids whose tuples satisfy the predicate:
    /// one column pass per clause ([`Predicate::mask`]), then one bit
    /// test per row.
    pub fn select(&self, table: &Table, rows: &[u32]) -> Result<Vec<u32>> {
        let m = self.mask(table, &ClauseMaskCache::new())?;
        Ok(rows.iter().copied().filter(|&r| m.contains(r)).collect())
    }

    /// Counts the rows of `rows` satisfying the predicate.
    pub fn count(&self, table: &Table, rows: &[u32]) -> Result<usize> {
        let m = self.mask(table, &ClauseMaskCache::new())?;
        Ok(rows.iter().filter(|&&r| m.contains(r)).count())
    }

    /// Syntactic containment: every tuple matching `self` also matches
    /// `other` (`self ≺ other` in the paper's notation, modulo strictness).
    pub fn implies(&self, other: &Predicate) -> bool {
        zip(self, other).all(|pair| match pair {
            (Some(sc), Some(oc)) => oc.contains(sc),
            // False when `other` constrains an attribute `self` leaves free.
            (_, oc) => oc.is_none(),
        })
    }

    /// Conjunction of two predicates; `None` when unsatisfiable. As if
    /// each of `other`'s clauses were added by [`Predicate::and_clause`].
    pub fn intersect(&self, other: &Predicate) -> Option<Predicate> {
        let mut clauses = Vec::with_capacity(zip(self, other).count());
        for pair in zip(self, other) {
            clauses.push(match pair {
                (_, Some(oc)) if oc.is_empty() => return None,
                (Some(sc), Some(oc)) => sc.intersect(oc)?,
                (sc, oc) => sc.or(oc).expect("zip yields a clause on one side").clone(),
            });
        }
        Some(Predicate { clauses })
    }

    /// Minimum-bounding-box union (§4.3): per-attribute hulls where both
    /// predicates have clauses; attributes constrained by only one side
    /// become unconstrained (the box must contain both operands).
    pub fn hull(&self, other: &Predicate) -> Predicate {
        let mut clauses = Vec::with_capacity(self.clauses.len().min(other.clauses.len()));
        clauses.extend(zip(self, other).filter_map(|pair| match pair {
            (Some(sc), Some(oc)) => Some(sc.hull(oc)),
            _ => None,
        }));
        Predicate::from_sorted(clauses)
    }

    /// The fraction of the full attribute-space volume this predicate's
    /// bounding box occupies (product of per-clause fractions).
    pub fn volume_fraction(&self, domains: &[AttrDomain]) -> f64 {
        self.clauses.iter().map(|c| c.fraction(&domains[c.attr()])).product()
    }

    /// The volume fraction of `self ∩ other`, or `None` when the boxes
    /// are disjoint: exactly `self.intersect(other).map(|p|
    /// p.volume_fraction(domains))`, computed without building the
    /// intersection. Both clause lists are walked in attribute order and
    /// each attribute's fraction is multiplied in with the same
    /// [`Clause::fraction`] arithmetic, so the result is bit-identical.
    /// As for [`Predicate::volume_fraction`], `domains` must cover every
    /// attribute either side constrains.
    pub fn intersect_volume_fraction(
        &self,
        other: &Predicate,
        domains: &[AttrDomain],
    ) -> Option<f64> {
        let mut mine = self.clauses.iter().peekable();
        let mut vol = 1.0;
        for oc in &other.clauses {
            // `other`'s clauses are conjoined into a copy of `self`: an
            // empty one makes the conjunction unsatisfiable.
            if oc.is_empty() {
                return None;
            }
            while let Some(sc) = mine.next_if(|sc| sc.attr() < oc.attr()) {
                vol *= sc.fraction(&domains[sc.attr()]);
            }
            vol *= match mine.next_if(|sc| sc.attr() == oc.attr()) {
                Some(sc) => sc.intersect_fraction(oc, &domains[sc.attr()])?,
                None => oc.fraction(&domains[oc.attr()]),
            };
        }
        for sc in mine {
            vol *= sc.fraction(&domains[sc.attr()]);
        }
        Some(vol)
    }

    /// Whether two boxes touch or overlap in every constrained dimension,
    /// so their hull introduces no gap. `eps_frac` is the allowed gap as a
    /// fraction of each attribute's domain span.
    pub fn is_adjacent(&self, other: &Predicate, domains: &[AttrDomain], eps_frac: f64) -> bool {
        zip(self, other).all(|pair| match pair {
            (Some(sc), Some(oc)) => sc.touches(oc, domains[sc.attr()].span() * eps_frac),
            // Unconstrained on one side: overlaps trivially.
            _ => true,
        })
    }

    /// The effective clause on `attr`: the stored clause, or the full-domain
    /// clause when unconstrained.
    fn effective_clause(&self, attr: usize, domains: &[AttrDomain]) -> Clause {
        if let Some(c) = self.clause(attr) {
            return c.clone();
        }
        match &domains[attr] {
            AttrDomain::Continuous { lo, hi } => {
                // Padded so the half-open range covers the observed maximum.
                let span = hi - lo;
                let pad = if span == 0.0 { 1e-9 } else { span * 1e-9 };
                Clause::range(attr, *lo, hi + pad)
            }
            AttrDomain::Discrete { cardinality } => Clause::in_set(attr, 0..*cardinality as u32),
        }
    }

    /// Carves `self` along `other`'s boundaries (§6.1.4). `other` meets
    /// `self` when, on every attribute `other` constrains, its clause
    /// overlaps `self`'s effective clause there. A box `other` meets comes
    /// back as the intersection box and disjoint remainder boxes that
    /// together cover `self − other`; a box it misses comes back whole,
    /// as `(None, vec![self.clone()])`, without a cut.
    pub fn carve(
        &self,
        other: &Predicate,
        domains: &[AttrDomain],
    ) -> (Option<Predicate>, Vec<Predicate>) {
        let mut remainders = Vec::new();
        let mut current = self.clone();
        for oc in &other.clauses {
            let attr = oc.attr();
            let sc = current.effective_clause(attr, domains);
            // Clauses of different kinds never meet.
            let Some(middle) = sc.intersect(oc) else { return (None, vec![self.clone()]) };
            match (&sc, oc) {
                (Clause::Range { lo: sl, hi: sh, .. }, Clause::Range { lo: ol, hi: oh, .. }) => {
                    // Left remainder: [sl, min(sh, ol))
                    let left_hi = sh.min(*ol);
                    if *sl < left_hi {
                        remainders.push(current.with_clause(Clause::range(attr, *sl, left_hi)));
                    }
                    // Right remainder: [max(sl, oh), sh)
                    let right_lo = sl.max(*oh);
                    if right_lo < *sh {
                        remainders.push(current.with_clause(Clause::range(attr, right_lo, *sh)));
                    }
                }
                (Clause::In { codes: scod, .. }, Clause::In { codes: ocod, .. }) => {
                    let outside: BTreeSet<u32> = scod.difference(ocod).copied().collect();
                    if !outside.is_empty() {
                        remainders.push(current.with_clause(Clause::in_set(attr, outside)));
                    }
                }
                _ => {}
            }
            current = current.with_clause(middle);
        }
        (Some(current), remainders)
    }

    /// Drops clauses that admit an attribute's entire observed domain
    /// (range covering `[lo, hi]`, or a value set containing every code),
    /// which arise when tree partitions or merges span a full dimension.
    /// The simplified predicate selects exactly the same rows.
    #[must_use]
    pub fn simplify(&self, domains: &[AttrDomain]) -> Predicate {
        let kept = self.clauses.iter().filter(|c| {
            let full = match (c, &domains[c.attr()]) {
                (Clause::Range { lo, hi, .. }, AttrDomain::Continuous { lo: dl, hi: dh }) => {
                    *lo <= *dl && *dh < *hi
                }
                (Clause::In { codes, .. }, AttrDomain::Discrete { cardinality }) => {
                    codes.len() >= *cardinality
                }
                _ => false,
            };
            !full
        });
        let mut clauses = Vec::with_capacity(self.clauses.len());
        clauses.extend(kept.cloned());
        Predicate::from_sorted(clauses)
    }

    /// Renders the predicate as a SQL-like string, resolving dictionary
    /// codes against `table`.
    pub fn display(&self, table: &Table) -> String {
        if self.is_all() {
            return "TRUE".to_owned();
        }
        let mut parts = Vec::with_capacity(self.clauses.len());
        for clause in &self.clauses {
            let attr = clause.attr();
            let name = table
                .schema()
                .field(attr)
                .map(|f| f.name().to_owned())
                .unwrap_or_else(|_| format!("attr{attr}"));
            let mut s = String::new();
            match clause {
                Clause::Range { lo, hi, .. } => {
                    // Use more digits when rounding would collapse the
                    // bounds (epsilon-padded ranges).
                    let (a, b) = (format!("{lo:.4}"), format!("{hi:.4}"));
                    if a == b {
                        let _ = write!(s, "{name} in [{lo}, {hi})");
                    } else {
                        let _ = write!(s, "{name} in [{a}, {b})");
                    }
                }
                Clause::In { codes, .. } => {
                    // A code past the column's dictionary (a clause built
                    // by hand with `Clause::in_set`) has no value to show:
                    // render its number, as for a non-discrete column.
                    let cat = table.cat(attr).ok();
                    let vals: Vec<String> = codes
                        .iter()
                        .map(|&c| match cat {
                            Some(cat) if (c as usize) < cat.cardinality() => {
                                format!("'{}'", cat.value_of(c))
                            }
                            _ => c.to_string(),
                        })
                        .collect();
                    let _ = write!(s, "{name} in ({})", vals.join(", "));
                }
            }
            parts.push(s);
        }
        parts.join(" AND ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::schema::{Field, Schema};
    use crate::table::TableBuilder;
    use crate::value::Value;

    fn table() -> Table {
        let schema =
            Schema::new(vec![Field::cont("x"), Field::cont("y"), Field::disc("s")]).unwrap();
        let mut b = TableBuilder::new(schema);
        let rows = [(1.0, 10.0, "a"), (5.0, 20.0, "b"), (9.0, 30.0, "a"), (5.0, 35.0, "c")];
        for (x, y, s) in rows {
            b.push_row(vec![Value::from(x), Value::from(y), Value::from(s)]).unwrap();
        }
        b.build()
    }

    fn domains(t: &Table) -> Vec<AttrDomain> {
        crate::domain::domains_of(t).unwrap()
    }

    #[test]
    fn all_matches_everything() {
        let t = table();
        let p = Predicate::all();
        assert!(p.is_all());
        assert_eq!(p.select(&t, &[0, 1, 2, 3]).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(p.display(&t), "TRUE");
    }

    #[test]
    fn conjunction_selects_rows() {
        let t = table();
        let p = Predicate::conjunction([
            Clause::range(0, 2.0, 10.0),
            Clause::in_set(2, [t.cat(2).unwrap().code_of("b").unwrap()]),
        ])
        .unwrap();
        assert_eq!(p.select(&t, &[0, 1, 2, 3]).unwrap(), vec![1]);
        assert_eq!(p.count(&t, &[0, 1, 2, 3]).unwrap(), 1);
    }

    #[test]
    fn and_clause_intersects_same_attr() {
        let p = Predicate::all()
            .and_clause(Clause::range(0, 0.0, 10.0))
            .unwrap()
            .and_clause(Clause::range(0, 5.0, 20.0))
            .unwrap();
        assert_eq!(p.clause(0), Some(&Clause::range(0, 5.0, 10.0)));
        assert!(Predicate::all()
            .and_clause(Clause::range(0, 0.0, 1.0))
            .unwrap()
            .and_clause(Clause::range(0, 2.0, 3.0))
            .is_none());
    }

    #[test]
    fn implication() {
        let narrow =
            Predicate::conjunction([Clause::range(0, 4.0, 6.0), Clause::range(1, 15.0, 25.0)])
                .unwrap();
        let wide = Predicate::conjunction([Clause::range(0, 0.0, 10.0)]).unwrap();
        assert!(narrow.implies(&wide));
        assert!(!wide.implies(&narrow));
        assert!(narrow.implies(&Predicate::all()));
        assert!(!Predicate::all().implies(&wide));
    }

    #[test]
    fn hull_drops_one_sided_attrs() {
        let a = Predicate::conjunction([Clause::range(0, 0.0, 2.0), Clause::range(1, 10.0, 20.0)])
            .unwrap();
        let b = Predicate::conjunction([Clause::range(0, 5.0, 9.0)]).unwrap();
        let h = a.hull(&b);
        assert_eq!(h.clause(0), Some(&Clause::range(0, 0.0, 9.0)));
        // y constrained only by `a`, so the hull must free it.
        assert_eq!(h.clause(1), None);
        assert!(a.implies(&h) && b.implies(&h));
    }

    #[test]
    fn volume_fraction_multiplies() {
        let t = table();
        let d = domains(&t); // x: [1,9], y: [10,35], s card 3
        let p = Predicate::conjunction([
            Clause::range(0, 1.0, 5.0),   // 4/8
            Clause::range(1, 10.0, 20.0), // 10/25
        ])
        .unwrap();
        assert!((p.volume_fraction(&d) - 0.5 * 0.4).abs() < 1e-12);
        assert_eq!(Predicate::all().volume_fraction(&d), 1.0);
    }

    /// `a.intersect_volume_fraction(b)`, checked bit for bit against its
    /// definition.
    fn inter_vol(a: &Predicate, b: &Predicate, d: &[AttrDomain]) -> Option<f64> {
        let direct = a.intersect_volume_fraction(b, d);
        let built = a.intersect(b).map(|p| p.volume_fraction(d));
        assert_eq!(direct.map(f64::to_bits), built.map(f64::to_bits), "{a:?} ∩ {b:?}");
        direct
    }

    #[test]
    fn intersect_volume_fraction_matches_built_intersection() {
        let t = table();
        let d = domains(&t); // x: [1,9], y: [10,35], s card 3
        let x = |lo, hi| Clause::range(0, lo, hi);
        let s = |codes: &[u32]| Clause::in_set(2, codes.iter().copied());
        let p = |clauses: Vec<Clause>| Predicate::conjunction(clauses).unwrap();

        // Set clauses: overlapping, then disjoint.
        let ab = p(vec![s(&[0, 1])]);
        assert_eq!(inter_vol(&ab, &p(vec![s(&[1, 2])]), &d), Some(1.0 / 3.0));
        assert_eq!(inter_vol(&ab, &p(vec![s(&[2])]), &d), None);

        // An attribute constrained on one side only, for either side.
        let xy = p(vec![x(1.0, 5.0), Clause::range(1, 10.0, 20.0)]);
        let xs = p(vec![x(3.0, 9.0), s(&[0])]);
        for (a, b) in [(&xy, &xs), (&xs, &xy)] {
            let v = inter_vol(a, b, &d).expect("the boxes overlap on x");
            assert!((v - 0.25 * 0.4 / 3.0).abs() < 1e-12, "{v}");
        }
        // Disjoint on the shared attribute, whatever else overlaps; ranges
        // that only touch are disjoint too (half-open bounds).
        assert_eq!(inter_vol(&xy, &p(vec![x(6.0, 9.0), s(&[0])]), &d), None);
        assert_eq!(inter_vol(&xy, &p(vec![x(5.0, 9.0)]), &d), None);

        // An empty clause on `other` makes the conjunction unsatisfiable,
        // on a shared attribute or not; on `self`, it only has no volume.
        let empty_x = Predicate::all().with_clause(x(4.0, 4.0));
        let empty_s = Predicate::all().with_clause(s(&[]));
        assert_eq!(inter_vol(&xy, &empty_x, &d), None);
        assert_eq!(inter_vol(&xy, &empty_s, &d), None);
        assert_eq!(inter_vol(&empty_s, &xy, &d), Some(0.0));

        // The always-true predicate is the identity, on either side.
        let all = Predicate::all();
        assert_eq!(inter_vol(&all, &all, &d), Some(1.0));
        for q in [&ab, &xy, &xs] {
            assert_eq!(inter_vol(&all, q, &d), Some(q.volume_fraction(&d)));
            assert_eq!(inter_vol(q, &all, &d), Some(q.volume_fraction(&d)));
        }
    }

    #[test]
    fn adjacency() {
        let t = table();
        let d = domains(&t);
        let a = Predicate::conjunction([Clause::range(0, 1.0, 5.0)]).unwrap();
        let b = Predicate::conjunction([Clause::range(0, 5.0, 9.0)]).unwrap();
        let c = Predicate::conjunction([Clause::range(0, 7.0, 9.0)]).unwrap();
        assert!(a.is_adjacent(&b, &d, 0.0));
        assert!(!a.is_adjacent(&c, &d, 0.01));
        // Everything is adjacent to the unconstrained predicate.
        assert!(a.is_adjacent(&Predicate::all(), &d, 0.0));
    }

    #[test]
    fn carve_range() {
        let t = table();
        let d = domains(&t);
        let outer = Predicate::conjunction([Clause::range(0, 1.0, 9.0)]).unwrap();
        let inner = Predicate::conjunction([Clause::range(0, 3.0, 5.0)]).unwrap();
        let (mid, rem) = outer.carve(&inner, &d);
        assert_eq!(mid.unwrap().clause(0), Some(&Clause::range(0, 3.0, 5.0)));
        assert_eq!(rem.len(), 2);
        assert_eq!(rem[0].clause(0), Some(&Clause::range(0, 1.0, 3.0)));
        assert_eq!(rem[1].clause(0), Some(&Clause::range(0, 5.0, 9.0)));
    }

    #[test]
    fn carve_disjoint_returns_no_intersection() {
        let t = table();
        let d = domains(&t);
        let a = Predicate::conjunction([Clause::range(0, 1.0, 3.0)]).unwrap();
        let b = Predicate::conjunction([Clause::range(0, 5.0, 7.0)]).unwrap();
        let (mid, rem) = a.carve(&b, &d);
        assert!(mid.is_none());
        assert_eq!(rem.len(), 1);
        assert_eq!(rem[0], a);

        // Boxes that overlap on x but not on y miss each other too: the box
        // comes back whole rather than as pieces cut on x.
        let p = |x: (f64, f64), y: (f64, f64)| {
            Predicate::conjunction([Clause::range(0, x.0, x.1), Clause::range(1, y.0, y.1)])
                .unwrap()
        };
        let (unit, by) = (p((0.0, 1.0), (0.0, 1.0)), p((0.2, 0.4), (5.0, 6.0)));
        assert_eq!(unit.carve(&by, &d), (None, vec![unit.clone()]));
    }

    #[test]
    fn carve_discrete_and_unconstrained_dims() {
        let t = table();
        let d = domains(&t);
        // `self` unconstrained on s; carve by a discrete clause.
        let outer = Predicate::conjunction([Clause::range(0, 1.0, 9.0)]).unwrap();
        let code_a = t.cat(2).unwrap().code_of("a").unwrap();
        let by = Predicate::conjunction([Clause::in_set(2, [code_a])]).unwrap();
        let (mid, rem) = outer.carve(&by, &d);
        let mid = mid.unwrap();
        assert_eq!(mid.clause(2), Some(&Clause::in_set(2, [code_a])));
        assert_eq!(rem.len(), 1);
        // Remainder admits the other codes.
        let rem_clause = rem[0].clause(2).unwrap();
        assert!(!rem_clause.matches_code(code_a));
        // Together mid+remainder cover exactly outer's rows.
        let all_rows: Vec<u32> = (0..t.len() as u32).collect();
        let mut covered: Vec<u32> = mid.select(&t, &all_rows).unwrap();
        covered.extend(rem[0].select(&t, &all_rows).unwrap());
        covered.sort_unstable();
        assert_eq!(covered, outer.select(&t, &all_rows).unwrap());
    }

    #[test]
    fn display_renders_names_and_values() {
        let t = table();
        let code_a = t.cat(2).unwrap().code_of("a").unwrap();
        let p = Predicate::conjunction([Clause::range(0, 1.0, 5.0), Clause::in_set(2, [code_a])])
            .unwrap();
        let s = p.display(&t);
        assert!(s.contains("x in [1.0000, 5.0000)"), "{s}");
        assert!(s.contains("s in ('a')"), "{s}");
        assert!(s.contains(" AND "), "{s}");
    }

    #[test]
    fn simplify_drops_full_domain_clauses() {
        let t = table();
        let d = domains(&t); // x: [1,9], s card 3
        let p = Predicate::conjunction([
            Clause::range(0, 0.0, 100.0), // covers all of x
            Clause::range(1, 15.0, 25.0), // partial on y
            Clause::in_set(2, [0, 1, 2]), // all codes
        ])
        .unwrap();
        let s = p.simplify(&d);
        assert!(s.clause(0).is_none());
        assert!(s.clause(1).is_some());
        assert!(s.clause(2).is_none());
        // Same selection.
        let rows: Vec<u32> = (0..t.len() as u32).collect();
        assert_eq!(p.select(&t, &rows).unwrap(), s.select(&t, &rows).unwrap());
        // Partial clauses survive.
        let q = Predicate::conjunction([Clause::range(0, 1.0, 5.0)]).unwrap();
        assert_eq!(q.simplify(&d), q);
    }

    /// The row-at-a-time oracle: does row `r` satisfy every clause of
    /// `p`, clause by clause through the scalar semantics?
    fn matches_row(t: &Table, p: &Predicate, r: u32) -> bool {
        p.clauses().all(|c| match t.column(c.attr()).unwrap() {
            Column::Num(v) => c.matches_num(v[r as usize]),
            Column::Cat(cat) => c.matches_code(cat.codes()[r as usize]),
        })
    }

    #[test]
    fn mask_agrees_with_row_oracle_and_shares_clause_masks() {
        let t = table();
        let cache = ClauseMaskCache::new();
        let code_b = t.cat(2).unwrap().code_of("b").unwrap();
        let preds = [
            Predicate::all(),
            Predicate::conjunction([Clause::range(0, 2.0, 10.0)]).unwrap(),
            Predicate::conjunction([Clause::range(0, 2.0, 10.0), Clause::in_set(2, [code_b])])
                .unwrap(),
        ];
        let all: Vec<u32> = (0..t.len() as u32).collect();
        for p in &preds {
            let mask = p.mask(&t, &cache).unwrap();
            let want: Vec<u32> = all.iter().copied().filter(|&r| matches_row(&t, p, r)).collect();
            assert_eq!(mask.to_rows(), want, "{}", p.display(&t));
            assert_eq!(p.select(&t, &all).unwrap(), want);
            assert_eq!(p.count(&t, &all).unwrap(), want.len());
            // One row, out of order: `select` keeps the caller's order.
            let probe = [3, 1];
            let picked: Vec<u32> =
                probe.iter().copied().filter(|&r| matches_row(&t, p, r)).collect();
            assert_eq!(p.select(&t, &probe).unwrap(), picked);
            assert_eq!(p.count(&t, &probe[..1]).unwrap(), usize::from(matches_row(&t, p, 3)));
        }
        // The range clause appears in two predicates: its second lookup
        // is a cache hit, and the single-clause predicate shares the Arc.
        assert_eq!(cache.len(), 2);
        let mut masks = Vec::new();
        assert_eq!(preds[2].clause_masks(&t, &cache, &mut masks).unwrap(), 2);
        assert_eq!(masks.len(), 2);
        if let PredicateMask::Shared(m) = preds[1].mask(&t, &cache).unwrap() {
            assert_eq!(preds[1].clause_masks(&t, &cache, &mut masks).unwrap(), 1);
            assert!(Arc::ptr_eq(&m, &masks[0]));
        } else {
            panic!("single-clause predicate must share its clause mask");
        }
        // A fresh cache answers nothing.
        assert_eq!(preds[2].clause_masks(&t, &ClauseMaskCache::new(), &mut masks).unwrap(), 0);
    }

    #[test]
    fn every_evaluation_reports_type_mismatch() {
        let t = table();
        // Range clause over the discrete attribute `s`.
        let bad = Predicate::conjunction([Clause::range(2, 0.0, 1.0)]).unwrap();
        let is_mismatch = |e: crate::error::TableError| {
            matches!(e, crate::error::TableError::TypeMismatch { ref attr, expected: "continuous" }
                if attr == "s")
        };
        assert!(is_mismatch(bad.mask(&t, &ClauseMaskCache::new()).err().unwrap()));
        assert!(is_mismatch(bad.select(&t, &[0]).unwrap_err()));
        assert!(is_mismatch(bad.count(&t, &[0]).unwrap_err()));
    }

    #[test]
    fn without_attr_widens() {
        let p = Predicate::conjunction([Clause::range(0, 1.0, 2.0), Clause::range(1, 3.0, 4.0)])
            .unwrap();
        let q = p.without_attr(0);
        assert!(q.clause(0).is_none());
        assert!(p.implies(&q));
    }
}
