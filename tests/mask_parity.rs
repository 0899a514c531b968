//! Oracle parity gate for the bitmap execution layer (property-based).
//!
//! For randomized tables, clauses, and row subsets, the mask path —
//! [`Predicate::mask`] / [`Predicate::mask_uncached`] composed with
//! popcount and selection-vector iteration — must agree with the
//! row-at-a-time [`PredicateMatcher`] oracle on `count`, `select`, and
//! full `(n, Δ)` influence (where agreement is *bit-exact*: the masked
//! aggregate fold visits rows in the same ascending order the oracle
//! does).

use proptest::prelude::*;
use scorpion::prelude::*;
use scorpion::table::{ClauseMaskCache, PredicateMatcher};

/// Builds a random table: a discrete group attribute (2 groups), one
/// continuous attribute, one discrete attribute (4 values), and the
/// aggregate attribute.
fn build_table(rows: &[(f64, usize, f64, bool)]) -> Table {
    let schema =
        Schema::new(vec![Field::disc("g"), Field::cont("x"), Field::disc("s"), Field::cont("v")])
            .unwrap();
    let mut b = TableBuilder::new(schema);
    for &(x, s, v, outlier) in rows {
        let g = if outlier { "o" } else { "h" };
        let s = ["red", "green", "blue", "gray"][s % 4];
        b.push_row(vec![g.into(), x.into(), s.into(), v.into()]).unwrap();
    }
    b.build()
}

/// A random conjunction: a range clause over `x` and, when `with_set`,
/// a set clause over `s` (codes drawn from the interned dictionary).
fn build_predicate(t: &Table, lo: f64, width: f64, with_set: bool, set_bits: usize) -> Predicate {
    let mut clauses = vec![Clause::range(1, lo, lo + width)];
    if with_set {
        let card = t.cat(2).unwrap().cardinality() as u32;
        let codes: Vec<u32> = (0..card).filter(|c| (set_bits >> c) & 1 == 1).collect();
        if !codes.is_empty() {
            clauses.push(Clause::in_set(2, codes));
        }
    }
    Predicate::conjunction(clauses).unwrap()
}

/// The oracle: row-at-a-time matcher selection over `rows`.
fn oracle_select(m: &PredicateMatcher<'_>, rows: &[u32]) -> Vec<u32> {
    rows.iter().copied().filter(|&r| m.matches(r)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Predicate::mask` ∘ popcount/iter ≡ `PredicateMatcher` for
    /// count, select, and membership, over the full table and over
    /// random row subsets; cached and uncached masks agree.
    #[test]
    fn mask_count_select_match_matcher(
        data in prop::collection::vec(
            (0.0f64..100.0, 0usize..4, -50.0f64..50.0, any::<bool>()), 1..120),
        lo in 0.0f64..90.0,
        width in 0.5f64..60.0,
        with_set in any::<bool>(),
        set_bits in 1usize..16,
        subset_stride in 1usize..5,
        subset_offset in 0usize..4,
    ) {
        let t = build_table(&data);
        let p = build_predicate(&t, lo, width, with_set, set_bits);
        let m = p.matcher(&t).unwrap();
        let cache = ClauseMaskCache::new();
        let mask = p.mask(&t, &cache).unwrap();
        let uncached = p.mask_uncached(&t).unwrap();

        let all: Vec<u32> = (0..t.len() as u32).collect();
        let want_all = oracle_select(&m, &all);
        // Selection-vector iteration and popcount against the oracle.
        prop_assert_eq!(mask.to_rows(), want_all.clone());
        prop_assert_eq!(mask.count_ones(), want_all.len());
        prop_assert_eq!(uncached.to_rows(), want_all.clone());

        // Membership over a random (sorted) row subset.
        let subset: Vec<u32> =
            all.iter().copied().skip(subset_offset).step_by(subset_stride).collect();
        prop_assert_eq!(p.select(&t, &subset).unwrap(), oracle_select(&m, &subset));
        prop_assert_eq!(p.count(&t, &subset).unwrap(), oracle_select(&m, &subset).len());
    }

    /// The masked `(n, Δ)` influence fold is bit-exact with the
    /// row-at-a-time oracle, for the removable aggregates (SUM, COUNT,
    /// AVG, STDDEV, VARIANCE) and a black-box one (MEDIAN), with and
    /// without hold-out groups. Tables run to ~1,500 rows, so a group
    /// spans more than the 8 words the fold zips per chunk.
    #[test]
    fn masked_influence_is_bit_exact_with_rowwise_oracle(
        data in prop::collection::vec(
            (0.0f64..100.0, 0usize..4, -50.0f64..50.0, any::<bool>()), 2..1500),
        lo in 0.0f64..90.0,
        width in 0.5f64..60.0,
        with_set in any::<bool>(),
        set_bits in 1usize..16,
        lambda in 0.0f64..1.0,
        c in 0.0f64..1.5,
    ) {
        // Guarantee both groups are inhabited.
        let mut rows = data.clone();
        rows.push((1.0, 0, 1.0, true));
        rows.push((2.0, 1, 2.0, false));
        let t = build_table(&rows);
        let g = group_by(&t, &[0]).unwrap();
        let o_idx = (0..g.len()).find(|&i| g.display_key(&t, i) == "o").unwrap();
        let h_idx = 1 - o_idx;
        let p = build_predicate(&t, lo, width, with_set, set_bits);

        let aggs: [&dyn Aggregate; 6] = [&Sum, &Count, &Avg, &StdDev, &Variance, &Median];
        for agg in aggs {
            let s = Scorer::new(
                &t, agg, 3,
                vec![GroupSpec { rows: g.rows(o_idx).to_vec(), error: 1.0 }],
                vec![GroupSpec { rows: g.rows(h_idx).to_vec(), error: 1.0 }],
                InfluenceParams { lambda, c },
            ).unwrap();
            let masked = s.influence(&p).unwrap();
            let oracle = s.influence_rowwise(&p).unwrap();
            prop_assert_eq!(
                masked.to_bits(), oracle.to_bits(),
                "{}: mask {} != oracle {}", agg.name(), masked, oracle
            );
            // Outlier-only influence (MC's pruning estimate) too.
            let via_cache = s
                .with_params(InfluenceParams { lambda, c })
                .unwrap()
                .influence_outliers_only(&p)
                .unwrap();
            prop_assert!(via_cache.is_finite() || via_cache.is_nan() == oracle.is_nan());
        }
    }
}

/// Regression: `ClauseMaskCache::clear()` must reset the hit counter
/// along with the entries. It used to leave `hits()` at its old value,
/// so a rebind's fresh cache reported stale hit counts from the
/// previous data snapshot in diagnostics.
#[test]
fn clause_mask_cache_clear_resets_counters() {
    let rows: Vec<(f64, usize, f64, bool)> =
        (0..64).map(|i| (i as f64, i % 4, i as f64, i % 2 == 0)).collect();
    let t = build_table(&rows);
    let p = build_predicate(&t, 10.0, 20.0, false, 0);
    let cache = ClauseMaskCache::new();

    p.mask(&t, &cache).unwrap();
    p.mask(&t, &cache).unwrap();
    assert!(cache.hits() > 0, "second lookup must hit");
    assert!(!cache.is_empty(), "first lookup must populate");

    cache.clear();
    assert_eq!(cache.len(), 0, "clear() must drop entries");
    assert_eq!(cache.hits(), 0, "clear() must reset the hit counter");

    // A fresh miss/hit cycle counts from zero.
    p.mask(&t, &cache).unwrap();
    assert_eq!(cache.hits(), 0);
    p.mask(&t, &cache).unwrap();
    assert_eq!(cache.hits(), 1);
}
