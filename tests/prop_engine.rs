//! Cross-crate property tests: influence semantics and predicate algebra
//! under randomized tables.

use proptest::prelude::*;
use scorpion::prelude::*;

/// Builds a small random two-group table over one dimension attribute.
fn build_table(xs: &[(f64, f64, bool)]) -> Table {
    // (x, v, in_outlier_group)
    let schema = Schema::new(vec![Field::disc("g"), Field::cont("x"), Field::cont("v")]).unwrap();
    let mut b = TableBuilder::new(schema);
    for &(x, v, outlier) in xs {
        let g = if outlier { "o" } else { "h" };
        b.push_row(vec![g.into(), x.into(), v.into()]).unwrap();
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The influence of any predicate under λ=1, H=∅, c=1 equals the mean
    /// of the matched tuples' single-tuple influences (the independence
    /// identity behind §5.2 for AVG-free aggregates like SUM).
    #[test]
    fn sum_influence_is_mean_of_tuple_influences(
        data in prop::collection::vec((0.0f64..100.0, 0.0f64..50.0), 4..40),
        lo in 0.0f64..50.0,
        width in 1.0f64..50.0,
    ) {
        let rows: Vec<(f64, f64, bool)> =
            data.iter().map(|&(x, v)| (x, v, true)).collect();
        let t = build_table(&rows);
        let g = group_by(&t, &[0]).unwrap();
        let scorer = Scorer::new(
            &t, &Sum, 2,
            vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }],
            vec![],
            InfluenceParams { lambda: 1.0, c: 1.0 },
        ).unwrap();
        let pred = Predicate::conjunction([Clause::range(1, lo, lo + width)]).unwrap();
        let inf = scorer.influence(&pred).unwrap();
        let deltas = scorer.outlier_tuple_deltas(0);
        let xs = t.num(1).unwrap();
        let matched: Vec<f64> = g.rows(0).iter().enumerate()
            .filter(|(_, &r)| (lo..lo + width).contains(&xs[r as usize]))
            .map(|(i, _)| deltas[i])
            .collect();
        let want = if matched.is_empty() { 0.0 }
                   else { matched.iter().sum::<f64>() / matched.len() as f64 };
        prop_assert!((inf - want).abs() < 1e-6 * want.abs().max(1.0), "{inf} vs {want}");
    }

    /// Widening a predicate never decreases Δ for SUM over non-negative
    /// values (§5.3 anti-monotonicity), at the engine level.
    #[test]
    fn widening_never_decreases_delta(
        data in prop::collection::vec((0.0f64..100.0, 0.0f64..50.0), 4..40),
        lo in 0.0f64..40.0,
        w1 in 1.0f64..30.0,
        extra in 0.0f64..30.0,
    ) {
        let rows: Vec<(f64, f64, bool)> =
            data.iter().map(|&(x, v)| (x, v, true)).collect();
        let t = build_table(&rows);
        let g = group_by(&t, &[0]).unwrap();
        let scorer = Scorer::new(
            &t, &Sum, 2,
            vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }],
            vec![],
            // c = 0 makes influence equal Δ (λ = 1).
            InfluenceParams { lambda: 1.0, c: 0.0 },
        ).unwrap();
        let narrow = Predicate::conjunction([Clause::range(1, lo, lo + w1)]).unwrap();
        let wide = Predicate::conjunction([Clause::range(1, lo, lo + w1 + extra)]).unwrap();
        let d_narrow = scorer.influence(&narrow).unwrap();
        let d_wide = scorer.influence(&wide).unwrap();
        prop_assert!(d_wide >= d_narrow - 1e-9);
    }

    /// Hold-out penalties only lower influence: for any predicate,
    /// inf(O, H, p, V) ≤ inf(O, ∅, p, V).
    #[test]
    fn holdout_penalty_is_nonpositive(
        data in prop::collection::vec((0.0f64..100.0, 0.0f64..50.0, any::<bool>()), 8..60),
        lo in 0.0f64..50.0,
        width in 1.0f64..50.0,
    ) {
        // Need at least one tuple per group.
        let mut rows = data.clone();
        rows.push((1.0, 1.0, true));
        rows.push((1.0, 1.0, false));
        let t = build_table(&rows);
        let g = group_by(&t, &[0]).unwrap();
        let (o_idx, h_idx) = {
            let k0 = g.display_key(&t, 0);
            if k0 == "o" { (0, 1) } else { (1, 0) }
        };
        let scorer = Scorer::new(
            &t, &Sum, 2,
            vec![GroupSpec { rows: g.rows(o_idx).to_vec(), error: 1.0 }],
            vec![GroupSpec { rows: g.rows(h_idx).to_vec(), error: 1.0 }],
            InfluenceParams { lambda: 0.5, c: 0.5 },
        ).unwrap();
        let pred = Predicate::conjunction([Clause::range(1, lo, lo + width)]).unwrap();
        let with_h = scorer.influence(&pred).unwrap();
        let without_h = scorer.influence_outliers_only(&pred).unwrap();
        prop_assert!(with_h <= without_h + 1e-9);
    }

    /// Predicate algebra laws hold on randomized boxes: intersection
    /// implies both operands; both operands imply the hull; the
    /// intersection's volume matches its definition bit for bit.
    #[test]
    fn algebra_laws(
        a_lo in 0.0f64..80.0, a_w in 1.0f64..40.0,
        b_lo in 0.0f64..80.0, b_w in 1.0f64..40.0,
        c_lo in 0.0f64..80.0, c_w in 1.0f64..40.0,
    ) {
        let a = Predicate::conjunction([
            Clause::range(1, a_lo, a_lo + a_w),
            Clause::range(2, c_lo, c_lo + c_w),
        ]).unwrap();
        let b = Predicate::conjunction([Clause::range(1, b_lo, b_lo + b_w)]).unwrap();
        if let Some(i) = a.intersect(&b) {
            prop_assert!(i.implies(&a));
            prop_assert!(i.implies(&b));
        }
        let h = a.hull(&b);
        prop_assert!(a.implies(&h));
        prop_assert!(b.implies(&h));
        // The intersection's volume, computed without building the
        // intersection, has the definition's exact bits in both argument
        // orders (`None` for disjoint boxes). Boxes may overhang the
        // domain, so the clamping is exercised too.
        let d = [
            AttrDomain::Discrete { cardinality: 2 },
            AttrDomain::Continuous { lo: 0.0, hi: 100.0 },
            AttrDomain::Continuous { lo: 0.0, hi: 100.0 },
        ];
        for (x, y) in [(&a, &b), (&b, &a)] {
            let direct = x.intersect_volume_fraction(y, &d).map(f64::to_bits);
            let built = x.intersect(y).map(|i| i.volume_fraction(&d).to_bits());
            prop_assert_eq!(direct, built);
        }
    }

    /// Carving a box by another yields pieces that partition the
    /// original's selection: same rows, no duplicates.
    #[test]
    fn carve_partitions_selection(
        data in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 10..80),
        s_lo in 0.0f64..60.0, s_w in 5.0f64..40.0,
        o_lo in 0.0f64..60.0, o_w in 5.0f64..40.0,
    ) {
        let rows: Vec<(f64, f64, bool)> =
            data.iter().map(|&(x, v)| (x, v, true)).collect();
        let t = build_table(&rows);
        let domains = domains_of(&t).unwrap();
        let subject = Predicate::conjunction([Clause::range(1, s_lo, s_lo + s_w)]).unwrap();
        let by = Predicate::conjunction([Clause::range(1, o_lo, o_lo + o_w)]).unwrap();
        let (inter, rems) = subject.carve(&by, &domains);
        let all: Vec<u32> = (0..t.len() as u32).collect();
        let mut got: Vec<u32> = Vec::new();
        if let Some(i) = inter {
            got.extend(i.select(&t, &all).unwrap());
        }
        for r in &rems {
            got.extend(r.select(&t, &all).unwrap());
        }
        got.sort_unstable();
        // No duplicates (pieces are disjoint)...
        let mut dedup = got.clone();
        dedup.dedup();
        prop_assert_eq!(&dedup, &got);
        // ...and exactly the subject's selection.
        prop_assert_eq!(got, subject.select(&t, &all).unwrap());
    }
}
