//! Oracle parity gate for the bitmap execution layer (property-based).
//!
//! The library evaluates predicates only as bitmaps. The row-at-a-time
//! references it is checked against live here, built from nothing but
//! the clauses' scalar semantics ([`Clause::matches_num`] /
//! [`Clause::matches_code`]) and the public aggregate algebra (`empty`,
//! `state_one`, `accumulate`, `remove`, `recover`, and `compute` for a
//! black-box aggregate), so no oracle shares code with the path it
//! checks. The mask path — [`Predicate::mask`] composed with popcount
//! and selection-vector iteration, and the Scorer's masked `(n, Δ)`
//! fold — must agree with them on `count`, `select`, full influence and
//! outlier-only influence. Influence agreement is *bit-exact*: the
//! masked fold visits rows in the same ascending order the oracle does.

use proptest::prelude::*;
use scorpion::prelude::*;
use scorpion::table::Column;
use std::sync::Arc;

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

/// The row oracle: does row `r` satisfy every clause of `p`?
fn matches(t: &Table, p: &Predicate, r: u32) -> bool {
    p.clauses().all(|c| match t.column(c.attr()).unwrap() {
        Column::Num(v) => c.matches_num(v[r as usize]),
        Column::Cat(cat) => c.matches_code(cat.codes()[r as usize]),
    })
}

/// The rows of `rows` the row oracle selects, in the given order.
fn oracle_select(t: &Table, p: &Predicate, rows: &[u32]) -> Vec<u32> {
    rows.iter().copied().filter(|&r| matches(t, p, r)).collect()
}

/// The aggregate attribute of both test tables.
const AGG_ATTR: usize = 3;

/// The oracle's `(n, Δ)` of `p` over one group, walking the group's
/// rows (as a set, ascending) one at a time: the removed tuples' state
/// is accumulated from single-tuple states for a removable aggregate,
/// and the kept tuples are recomputed for a black-box one.
fn oracle_pair(t: &Table, agg: &dyn Aggregate, rows: &[u32], p: &Predicate) -> (f64, f64) {
    let mut rows = rows.to_vec();
    rows.sort_unstable();
    rows.dedup();
    let vals = t.num(AGG_ATTR).unwrap();
    let value = |r: &u32| vals[*r as usize];
    let n = rows.iter().filter(|&&r| matches(t, p, r)).count();
    if n == 0 {
        return (0.0, 0.0);
    }
    let delta = match agg.incremental().filter(|inc| inc.removable()) {
        Some(inc) => {
            let (mut full, mut removed) = (inc.empty(), inc.empty());
            for r in &rows {
                let one = inc.state_one(value(r));
                full.accumulate(&one);
                if matches(t, p, *r) {
                    removed.accumulate(&one);
                }
            }
            inc.recover(&full) - inc.recover(&inc.remove(&full, &removed))
        }
        None => {
            let all: Vec<f64> = rows.iter().map(value).collect();
            let kept: Vec<f64> = rows.iter().filter(|&&r| !matches(t, p, r)).map(value).collect();
            agg.compute(&all) - agg.compute(&kept)
        }
    };
    (n as f64, delta)
}

/// The §3.2 influence folded from oracle pairs, in the Scorer's order
/// of operations: `λ·avg_o(v_o·Δ/n^c) − (1−λ)·max_h|Δ/n^c|`, a group
/// that loses nothing contributing zero. `holdouts` empty gives the
/// outlier-only influence.
fn oracle_influence(
    outliers: &[((f64, f64), f64)],
    holdouts: &[(f64, f64)],
    params: InfluenceParams,
) -> f64 {
    let inf = |(n, d): (f64, f64), error: f64| {
        if n == 0.0 {
            0.0
        } else {
            error * d / n.powf(params.c)
        }
    };
    let mut sum = 0.0;
    for &(pair, error) in outliers {
        sum += inf(pair, error);
    }
    let out = sum / outliers.len() as f64;
    let mut hold = 0.0f64;
    for &pair in holdouts {
        hold = hold.max(inf(pair, 1.0).abs());
    }
    params.lambda * out - (1.0 - params.lambda) * hold
}

/// Checks a Scorer over `outliers` (rows, error) and `holdouts` against
/// the oracle for every predicate and `c`, bit for bit: full and
/// outlier-only influence, without an influence cache and through one
/// (a miss, then a hit).
fn check_influence(
    t: &Table,
    agg: &dyn Aggregate,
    outliers: &[(Vec<u32>, f64)],
    holdouts: &[Vec<u32>],
    lambda: f64,
    cs: &[f64],
    preds: &[Predicate],
) {
    let spec = |rows: &Vec<u32>, error| GroupSpec { rows: rows.clone(), error };
    let s = Scorer::new(
        t,
        agg,
        AGG_ATTR,
        outliers.iter().map(|(rows, e)| spec(rows, *e)).collect(),
        holdouts.iter().map(|rows| spec(rows, 1.0)).collect(),
        InfluenceParams { lambda, c: cs[0] },
    )
    .unwrap();
    for (g, (rows, _)) in outliers.iter().enumerate() {
        let mut want = rows.clone();
        want.sort_unstable();
        want.dedup();
        assert_eq!(s.outlier_rows(g), &want[..], "rows normalize ascending");
    }
    for p in preds {
        let out: Vec<_> =
            outliers.iter().map(|(rows, e)| (oracle_pair(t, agg, rows, p), *e)).collect();
        let hold: Vec<_> = holdouts.iter().map(|rows| oracle_pair(t, agg, rows, p)).collect();
        for &c in cs {
            let params = InfluenceParams { lambda, c };
            let (full, only) =
                (oracle_influence(&out, &hold, params), oracle_influence(&out, &[], params));
            let s = s.with_params(params).unwrap();
            let cached = s.with_params(params).unwrap().with_cache(Arc::new(InfluenceCache::new()));
            let got = [
                ("full", s.influence(p).unwrap(), full),
                ("outlier-only", s.influence_outliers_only(p).unwrap(), only),
                ("outlier-only, cache miss", cached.influence_outliers_only(p).unwrap(), only),
                ("full, cache hit", cached.influence(p).unwrap(), full),
            ];
            for (what, mask, oracle) in got {
                assert_eq!(
                    mask.to_bits(),
                    oracle.to_bits(),
                    "{} {} at c={}: mask {} != oracle {} for {}",
                    agg.name(),
                    what,
                    c,
                    mask,
                    oracle,
                    p.display(t)
                );
            }
            assert_eq!(cached.scorer_calls(), 1, "the second lookup hits the cache");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Predicate::mask` ∘ popcount/iter ≡ the row oracle for count,
    /// select, and membership, over the full table and over random row
    /// subsets, for a random conjunction and the empty one; a mask
    /// served from a warm cache agrees too.
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
        let all: Vec<u32> = (0..t.len() as u32).collect();
        let subset: Vec<u32> =
            all.iter().copied().skip(subset_offset).step_by(subset_stride).collect();
        let cache = ClauseMaskCache::new();
        for p in [build_predicate(&t, lo, width, with_set, set_bits), Predicate::all()] {
            let want_all = oracle_select(&t, &p, &all);
            for mask in [p.mask(&t, &cache).unwrap(), p.mask(&t, &cache).unwrap()] {
                // Selection-vector iteration and popcount against the oracle.
                prop_assert_eq!(mask.to_rows(), want_all.clone());
                prop_assert_eq!(mask.count_ones(), want_all.len());
            }
            // Membership over a random (sorted) row subset.
            let want = oracle_select(&t, &p, &subset);
            prop_assert_eq!(p.select(&t, &subset).unwrap(), want.clone());
            prop_assert_eq!(p.count(&t, &subset).unwrap(), want.len());
        }
    }

    /// The masked `(n, Δ)` influence fold is bit-exact with the
    /// row-at-a-time oracle, full and outlier-only, for the removable
    /// aggregates (SUM, COUNT, AVG, STDDEV, VARIANCE) and a black-box
    /// one (MEDIAN); for a random conjunction, `Predicate::all()` and
    /// an empty selection; at a random `c` and at 0, 0.3 and 1. Group
    /// rows reach the Scorer in descending order, which it normalizes.
    /// Tables run to ~1,500 rows, so a group spans more than the 8
    /// words the fold zips per chunk.
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
        let descending = |i: usize| g.rows(i).iter().rev().copied().collect::<Vec<u32>>();
        let preds = [
            build_predicate(&t, lo, width, with_set, set_bits),
            Predicate::all(),
            Predicate::conjunction([Clause::range(1, 200.0, 300.0)]).unwrap(),
        ];
        let aggs: [&dyn Aggregate; 6] = [&Sum, &Count, &Avg, &StdDev, &Variance, &Median];
        for agg in aggs {
            check_influence(
                &t,
                agg,
                &[(descending(o_idx), 1.0)],
                &[descending(h_idx)],
                lambda,
                &[c, 0.0, 0.3, 1.0],
                &preds,
            );
        }
    }
}

/// The paper's running example (Tables 1 & 2): AVG(temp) by time, with
/// 12PM and 1PM the outliers ("too high") and 11AM the hold-out. The
/// 12PM group reaches the Scorer in reverse order.
#[test]
fn paper_table_influence_is_bit_exact_with_rowwise_oracle() {
    let schema = Schema::new(vec![
        Field::disc("time"),
        Field::disc("sensorid"),
        Field::cont("voltage"),
        Field::cont("temp"),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    let rows: [(&str, &str, f64, f64); 9] = [
        ("11AM", "1", 2.64, 34.0),
        ("11AM", "2", 2.65, 35.0),
        ("11AM", "3", 2.63, 35.0),
        ("12PM", "1", 2.7, 35.0),
        ("12PM", "2", 2.7, 35.0),
        ("12PM", "3", 2.3, 100.0),
        ("1PM", "1", 2.7, 35.0),
        ("1PM", "2", 2.7, 35.0),
        ("1PM", "3", 2.3, 80.0),
    ];
    for (time, s, v, temp) in rows {
        b.push_row(vec![time.into(), s.into(), v.into(), temp.into()]).unwrap();
    }
    let t = b.build();
    let g = group_by(&t, &[0]).unwrap();
    let code3 = t.cat(1).unwrap().code_of("3").unwrap();
    let low_voltage = Clause::range(2, 0.0, 2.4);
    let preds = [
        Predicate::all(),
        Predicate::conjunction([low_voltage.clone()]).unwrap(),
        Predicate::conjunction([Clause::in_set(1, [code3])]).unwrap(),
        Predicate::conjunction([low_voltage, Clause::in_set(1, [code3])]).unwrap(),
        Predicate::conjunction([Clause::range(3, 1000.0, 2000.0)]).unwrap(),
    ];
    let noon: Vec<u32> = g.rows(1).iter().rev().copied().collect();
    let outliers = [(noon, 1.0), (g.rows(2).to_vec(), 1.0)];
    let holdouts = [g.rows(0).to_vec()];
    check_influence(&t, &Avg, &outliers, &holdouts, 0.5, &[0.0, 0.3, 1.0], &preds);
}

/// Hit attribution: a consumer counts its own clause-mask hits from the
/// lookups it makes, and a fresh cache — what a rebind builds for a new
/// table snapshot — answers nothing from the previous one.
#[test]
fn fresh_clause_mask_cache_counts_hits_from_zero() {
    let rows: Vec<(f64, usize, f64, bool)> =
        (0..64).map(|i| (i as f64, i % 4, i as f64, i % 2 == 0)).collect();
    let t = build_table(&rows);
    let p = build_predicate(&t, 10.0, 20.0, true, 0b0101);
    let mut masks = Vec::new();
    let cache = ClauseMaskCache::new();
    assert_eq!(p.clause_masks(&t, &cache, &mut masks).unwrap(), 0, "first lookups miss");
    assert_eq!(masks.len(), p.num_clauses());
    assert_eq!(cache.len(), p.num_clauses(), "first lookups populate");
    assert_eq!(p.clause_masks(&t, &cache, &mut masks).unwrap(), 2, "second lookups hit");

    let fresh = ClauseMaskCache::new();
    assert!(fresh.is_empty());
    assert_eq!(p.clause_masks(&t, &fresh, &mut masks).unwrap(), 0);
    assert_eq!(p.clause_masks(&t, &fresh, &mut masks).unwrap(), 2);
}
