//! `Predicate`'s algebra against a model that stores a conjunction as a
//! `BTreeMap<usize, Clause>`, one entry per attribute, and computes every
//! operation from `Clause`'s public operations (`intersect`, `hull`,
//! `contains`, `fraction`, `touches`) in attribute order.
//!
//! Clause sequences draw attributes 0–5 of a table with continuous and
//! discrete columns (one of each with a single-value domain), ranges with
//! NaN, ±∞ and `lo >= hi` bounds, empty, full and partial code sets (on
//! column 5 also codes past its dictionary), and now and then a clause of
//! the other kind than its column. Every result
//! must equal the model's: the same clauses in the same order, the same
//! verdicts, and volume fractions with the same bits.

use proptest::prelude::*;
use scorpion_table::{domains_of, AttrDomain, Clause, Field, Predicate, Schema, Table};
use scorpion_table::{TableBuilder, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// The model: one clause per attribute, in attribute order.
type Model = BTreeMap<usize, Clause>;

const ATTRS: usize = 6;
/// Dictionary size of the discrete columns 1 and 3 (column 5 has one value).
const CARD: u32 = 4;

/// Bounds ranges are drawn from: the continuous columns span [-5, 5],
/// except column 4, which holds 1.0 alone.
const BOUNDS: [f64; 12] =
    [f64::NAN, f64::NEG_INFINITY, f64::INFINITY, -5.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.5, 5.0, 7.0];

fn is_discrete(attr: usize) -> bool {
    attr % 2 == 1
}

fn table() -> Table {
    let fields = (0..ATTRS)
        .map(|a| {
            if is_discrete(a) {
                Field::disc(format!("d{a}"))
            } else {
                Field::cont(format!("x{a}"))
            }
        })
        .collect();
    let mut b = TableBuilder::new(Schema::new(fields).unwrap());
    for (i, x) in [-5.0, -1.0, 0.0, 2.5, 5.0].into_iter().enumerate() {
        let row = (0..ATTRS).map(|a| match a {
            4 => Value::from(1.0),
            5 => Value::from("only"),
            _ if is_discrete(a) => Value::from(["a", "b", "c", "d"][i % CARD as usize]),
            _ => Value::from(x),
        });
        b.push_row(row).unwrap();
    }
    b.build()
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

    fn clause(&mut self) -> Clause {
        let attr = self.below(ATTRS);
        // One clause in eight is of the other kind than its column.
        if is_discrete(attr) == (self.below(8) != 0) {
            let codes: BTreeSet<u32> = match self.below(5) {
                0 => BTreeSet::new(),
                1 => (0..CARD).collect(),
                _ => (0..CARD).filter(|_| self.below(2) == 0).collect(),
            };
            Clause::in_set(attr, codes)
        } else {
            Clause::range(attr, BOUNDS[self.below(BOUNDS.len())], BOUNDS[self.below(BOUNDS.len())])
        }
    }

    fn clauses(&mut self) -> Vec<Clause> {
        (0..self.below(9)).map(|_| self.clause()).collect()
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn m_and(m: &Model, c: &Clause) -> Option<Model> {
    if c.is_empty() {
        return None;
    }
    let merged = match m.get(&c.attr()) {
        Some(existing) => existing.intersect(c)?,
        None => c.clone(),
    };
    let mut out = m.clone();
    out.insert(c.attr(), merged);
    Some(out)
}

fn m_with(m: &Model, c: Clause) -> Model {
    let mut out = m.clone();
    out.insert(c.attr(), c);
    out
}

fn m_intersect(a: &Model, b: &Model) -> Option<Model> {
    b.values().try_fold(a.clone(), |m, c| m_and(&m, c))
}

fn m_hull(a: &Model, b: &Model) -> Model {
    a.iter().filter_map(|(k, sc)| b.get(k).map(|oc| (*k, sc.hull(oc)))).collect()
}

fn m_implies(a: &Model, b: &Model) -> bool {
    b.iter().all(|(k, oc)| a.get(k).is_some_and(|sc| oc.contains(sc)))
}

fn m_adjacent(a: &Model, b: &Model, d: &[AttrDomain], eps_frac: f64) -> bool {
    a.iter().all(|(k, sc)| b.get(k).is_none_or(|oc| sc.touches(oc, d[*k].span() * eps_frac)))
}

fn m_volume(m: &Model, d: &[AttrDomain]) -> f64 {
    m.values().map(|c| c.fraction(&d[c.attr()])).product()
}

fn m_effective(m: &Model, attr: usize, d: &[AttrDomain]) -> Clause {
    if let Some(c) = m.get(&attr) {
        return c.clone();
    }
    match &d[attr] {
        AttrDomain::Continuous { lo, hi } => {
            let span = hi - lo;
            let pad = if span == 0.0 { 1e-9 } else { span * 1e-9 };
            Clause::range(attr, *lo, hi + pad)
        }
        AttrDomain::Discrete { cardinality } => Clause::in_set(attr, 0..*cardinality as u32),
    }
}

/// Whether `b` meets `a`: on every attribute `b` constrains, its clause
/// overlaps `a`'s effective clause (the full domain where `a` is free).
/// Clauses of different kinds never overlap.
fn m_meets(a: &Model, b: &Model, d: &[AttrDomain]) -> bool {
    b.iter().all(|(&attr, oc)| match (&m_effective(a, attr, d), oc) {
        (Clause::Range { lo: sl, hi: sh, .. }, Clause::Range { lo: ol, hi: oh, .. }) => {
            sl.max(*ol) < sh.min(*oh)
        }
        (Clause::In { codes: s, .. }, Clause::In { codes: o, .. }) => !s.is_disjoint(o),
        _ => false,
    })
}

/// `a` carved by `b`: `a` whole when `b` misses it, otherwise the middle
/// and the left and right remainders of each of `b`'s attributes in turn.
fn m_carve(a: &Model, b: &Model, d: &[AttrDomain]) -> (Option<Model>, Vec<Model>) {
    if !m_meets(a, b, d) {
        return (None, vec![a.clone()]);
    }
    let mut rest = Vec::new();
    let mut cur = a.clone();
    for (&attr, oc) in b {
        match (&m_effective(&cur, attr, d), oc) {
            (Clause::Range { lo: sl, hi: sh, .. }, Clause::Range { lo: ol, hi: oh, .. }) => {
                if *sl < sh.min(*ol) {
                    rest.push(m_with(&cur, Clause::range(attr, *sl, sh.min(*ol))));
                }
                if sl.max(*oh) < *sh {
                    rest.push(m_with(&cur, Clause::range(attr, sl.max(*oh), *sh)));
                }
                cur = m_with(&cur, Clause::range(attr, sl.max(*ol), sh.min(*oh)));
            }
            (Clause::In { codes: s, .. }, Clause::In { codes: o, .. }) => {
                let outside: BTreeSet<u32> = s.difference(o).copied().collect();
                if !outside.is_empty() {
                    rest.push(m_with(&cur, Clause::in_set(attr, outside)));
                }
                cur = m_with(&cur, Clause::in_set(attr, s.intersection(o).copied()));
            }
            _ => unreachable!("m_meets rejects clauses of different kinds"),
        }
    }
    (Some(cur), rest)
}

fn m_simplify(m: &Model, d: &[AttrDomain]) -> Model {
    let full = |c: &Clause| match (c, &d[c.attr()]) {
        (Clause::Range { lo, hi, .. }, AttrDomain::Continuous { lo: dl, hi: dh }) => {
            *lo <= *dl && *dh < *hi
        }
        (Clause::In { codes, .. }, AttrDomain::Discrete { cardinality }) => {
            codes.len() >= *cardinality
        }
        _ => false,
    };
    m.iter().filter(|(_, c)| !full(c)).map(|(k, c)| (*k, c.clone())).collect()
}

fn m_display(m: &Model, t: &Table) -> String {
    if m.is_empty() {
        return "TRUE".to_owned();
    }
    let part = |c: &Clause| {
        let name = t.schema().field(c.attr()).unwrap().name().to_owned();
        match c {
            Clause::Range { lo, hi, .. } => {
                let (a, b) = (format!("{lo:.4}"), format!("{hi:.4}"));
                if a == b {
                    format!("{name} in [{lo}, {hi})")
                } else {
                    format!("{name} in [{a}, {b})")
                }
            }
            Clause::In { codes, .. } => {
                // A value for each code in the dictionary, the number for
                // any other (and for every code on a continuous column).
                let value = |k: u32| match t.cat(c.attr()) {
                    Ok(cat) if k < cat.cardinality() as u32 => format!("'{}'", cat.value_of(k)),
                    _ => k.to_string(),
                };
                let vals: Vec<String> = codes.iter().map(|&k| value(k)).collect();
                format!("{name} in ({})", vals.join(", "))
            }
        }
    };
    m.values().map(part).collect::<Vec<_>>().join(" AND ")
}

/// `p` holds exactly the model's clauses, in attribute order.
fn assert_same(p: &Predicate, m: &Model, what: &str) {
    let got: Vec<&Clause> = p.clauses().collect();
    assert_eq!(got, m.values().collect::<Vec<_>>(), "{what}: clauses()");
    assert_eq!(p.attrs().collect::<Vec<_>>(), m.keys().copied().collect::<Vec<_>>(), "{what}");
    assert_eq!((p.num_clauses(), p.is_all()), (m.len(), m.is_empty()), "{what}");
    for attr in 0..ATTRS {
        assert_eq!(p.clause(attr), m.get(&attr), "{what}: clause({attr})");
    }
}

fn assert_same_opt(p: Option<Predicate>, m: Option<Model>, what: &str) {
    match (p, m) {
        (Some(p), Some(m)) => assert_same(&p, &m, what),
        (p, m) => assert_eq!(p.is_some(), m.is_some(), "{what}: satisfiability"),
    }
}

fn hash_of(p: &Predicate) -> u64 {
    let mut h = DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

/// `clauses` put in by `with_clause` one at a time, and the model's
/// record of the same: the one way to build a predicate that may hold
/// an empty clause.
fn built(clauses: &[Clause]) -> (Predicate, Model) {
    let mut p = Predicate::all();
    let mut m = Model::new();
    for c in clauses {
        p = p.with_clause(c.clone());
        m = m_with(&m, c.clone());
        assert_same(&p, &m, "with_clause");
    }
    (p, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn predicate_algebra_matches_btree_model(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let t = table();
        let d = domains_of(&t).unwrap();
        let (seq_a, seq_b) = (rng.clauses(), rng.clauses());

        let conj = Predicate::conjunction(seq_a.iter().cloned());
        let model = seq_a.iter().try_fold(Model::new(), |m, c| m_and(&m, c));
        assert_same_opt(conj, model, "conjunction");

        let (a, ma) = built(&seq_a);
        let (b, mb) = built(&seq_b);
        for c in &seq_b {
            assert_same_opt(a.and_clause(c.clone()), m_and(&ma, c), "and_clause");
            let mut without = ma.clone();
            without.remove(&c.attr());
            assert_same(&a.without_attr(c.attr()), &without, "without_attr");
        }
        for (x, mx, y, my) in [(&a, &ma, &b, &mb), (&b, &mb, &a, &ma)] {
            assert_same_opt(x.intersect(y), m_intersect(mx, my), "intersect");
            assert_same(&x.hull(y), &m_hull(mx, my), "hull");
            prop_assert_eq!(x.implies(y), m_implies(mx, my));
            for eps in [0.0, 0.01, 0.5] {
                prop_assert_eq!(x.is_adjacent(y, &d, eps), m_adjacent(mx, my, &d, eps));
            }
            let (mid, rest) = x.carve(y, &d);
            let (m_mid, m_rest) = m_carve(mx, my, &d);
            assert_same_opt(mid, m_mid, "carve");
            prop_assert_eq!(rest.len(), m_rest.len());
            for (p, m) in rest.iter().zip(&m_rest) {
                assert_same(p, m, "carve remainder");
            }
            let vol = x.intersect_volume_fraction(y, &d).map(f64::to_bits);
            let m_vol = m_intersect(mx, my).map(|m| m_volume(&m, &d).to_bits());
            prop_assert_eq!(vol, m_vol);
        }
        for (p, m) in [(&a, &ma), (&b, &mb)] {
            prop_assert_eq!(p.volume_fraction(&d).to_bits(), m_volume(m, &d).to_bits());
            assert_same(&p.simplify(&d), &m_simplify(m, &d), "simplify");
            prop_assert_eq!(p.display(&t), m_display(m, &t));
        }

        // The same clauses in any order make the same predicate.
        let mut clauses: Vec<Clause> = a.clauses().cloned().collect();
        rng.shuffle(&mut clauses);
        let (shuffled, _) = built(&clauses);
        prop_assert_eq!(&shuffled, &a);
        prop_assert_eq!(hash_of(&shuffled), hash_of(&a));
        if let Some(conj) = Predicate::conjunction(clauses.iter().cloned()) {
            prop_assert_eq!(&conj, &a);
            prop_assert_eq!(hash_of(&conj), hash_of(&a));
        }
    }
}

/// Column values of the carve table: NaN of both signs, ±∞, ±0.0 and
/// finite values.
const CELLS: [f64; 11] =
    [f64::NAN, -f64::NAN, f64::NEG_INFINITY, f64::INFINITY, -0.0, 0.0, -3.0, -1.0, 0.5, 2.0, 4.0];

/// Range bounds of the carved boxes: ±∞, ±0.0 and finite values, some
/// past the columns' finite values.
const BOX_BOUNDS: [f64; 10] =
    [f64::NEG_INFINITY, f64::INFINITY, -3.0, -1.0, -0.0, 0.0, 0.5, 2.0, 4.0, 7.0];

/// Three columns: `x0` and `x2` continuous over [`CELLS`] (each value
/// beside each other one), `d1` discrete with [`CARD`] codes.
fn carve_table() -> Table {
    let fields = vec![Field::cont("x0"), Field::disc("d1"), Field::cont("x2")];
    let mut b = TableBuilder::new(Schema::new(fields).unwrap());
    for i in 0..CELLS.len() * CELLS.len() {
        let (x0, x2) = (CELLS[i % CELLS.len()], CELLS[i / CELLS.len()]);
        let d1 = ["a", "b", "c", "d"][i % CARD as usize];
        b.push_row(vec![Value::from(x0), Value::from(d1), Value::from(x2)]).unwrap();
    }
    b.build()
}

impl Rng {
    /// A box on two or three of [`carve_table`]'s attributes.
    fn carve_box(&mut self) -> (Predicate, Model) {
        let skip = if self.below(2) == 0 { self.below(3) } else { 3 };
        let clauses: Vec<Clause> = (0..3)
            .filter(|&attr| attr != skip)
            .map(|attr| {
                if attr == 1 {
                    // Now and then empty, or with a code past the dictionary.
                    Clause::in_set(1, (0..CARD + 1).filter(|_| self.below(2) == 0))
                } else {
                    let (x, y) = (self.below(BOX_BOUNDS.len()), self.below(BOX_BOUNDS.len()));
                    // One range in eight is empty or inverted.
                    let (lo, hi) = if self.below(8) == 0 { (y, x) } else { (x.min(y), x.max(y)) };
                    Clause::range(attr, BOX_BOUNDS[lo], BOX_BOUNDS[hi])
                }
            })
            .collect();
        built(&clauses)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Carving `a` by `b` over a table with NaN, ±∞ and ±0.0 cells: a box
    /// `b` misses comes back whole. Otherwise the pieces lie inside `a`,
    /// select pairwise disjoint rows, and together every row of `a` except
    /// those outside the full domain (NaN, or past its padded top) of an
    /// attribute `b` constrains and `a` leaves free, where the cut on that
    /// attribute reaches them.
    #[test]
    fn carve_pieces_partition_the_box(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let t = carve_table();
        let d = domains_of(&t).unwrap();
        let all: Vec<u32> = (0..t.len() as u32).collect();
        let (a, ma) = rng.carve_box();
        let (b, mb) = rng.carve_box();
        let (mid, rest) = a.carve(&b, &d);
        if m_meets(&ma, &mb, &d) {
            prop_assert!(mid.is_some());
            // Walking `b`'s attributes in order, a row of `a` outside the
            // effective clause of the first one whose middle it leaves is in
            // no piece: NaN, or past the padded top of the full domain of an
            // attribute `a` leaves free.
            let kept = |r: usize| {
                for (&attr, oc) in &mb {
                    let sc = m_effective(&ma, attr, &d);
                    let has = |c: &Clause| match c {
                        Clause::Range { .. } => c.matches_num(t.num(attr).unwrap()[r]),
                        Clause::In { .. } => c.matches_code(t.cat(attr).unwrap().codes()[r]),
                    };
                    if !has(&sc) || !has(oc) {
                        return has(&sc);
                    }
                }
                true
            };
            let mut want = a.select(&t, &all).unwrap();
            want.retain(|&r| kept(r as usize));
            let mut got: Vec<u32> = Vec::new();
            for p in mid.iter().chain(&rest) {
                prop_assert!(p.implies(&a), "{p:?} is not inside {a:?}");
                got.extend(p.select(&t, &all).unwrap());
            }
            got.sort_unstable();
            let mut distinct = got.clone();
            distinct.dedup();
            prop_assert_eq!(&distinct, &got, "pieces overlap");
            prop_assert_eq!(got, want);
        } else {
            prop_assert_eq!((mid, rest), (None, vec![a]));
        }
    }
}
