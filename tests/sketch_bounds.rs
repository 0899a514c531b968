//! Tier-1 property tests for the sketch-backed aggregate tier, driven
//! through the public crate surface: the approximate answers every
//! sketch-capable aggregate produces must stay inside its own
//! runtime-reported error bound against the exact `compute` oracle, and
//! the streaming laws (merge ≡ single-stream, retract ∘ insert ≡
//! identity) must hold at the aggregate level — not just inside the
//! sketch crate.

use proptest::prelude::*;
use scorpion::prelude::*;

/// `|est − exact| ≤ rel·|exact| + floor`, with a hair of slack for
/// values landing exactly on a log-bucket boundary.
fn within(est: f64, exact: f64, rel: f64) -> bool {
    (est - exact).abs() <= rel * exact.abs() * (1.0 + 1e-9) + 1e-9
}

/// Fills a fresh sketch partial from `values` via the aggregate's tier.
fn sketch_of(agg: &dyn SketchAggregate, values: &[f64]) -> SketchPartial {
    let mut p = agg.sketch_empty();
    for &v in values {
        p.insert(v);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every percentile the registry can name answers within the
    /// sketch's reported relative error of the exact rank statistic.
    #[test]
    fn percentile_sketch_tracks_exact(
        values in prop::collection::vec(0.5f64..1e5f64, 1..300),
        bp in 1u32..101u32,
    ) {
        let agg = Percentile::new(bp as f64 / 100.0).unwrap();
        let exact = agg.compute(&values);
        let tier = agg.sketch().expect("percentile has a sketch tier");
        let partial = sketch_of(tier, &values);
        let est = tier.sketch_finalize(&partial);
        let rel = partial.error_bound().magnitude();
        prop_assert!(within(est, exact, rel), "p{bp}: {est} vs {exact} (rel {rel})");
    }

    /// MEDIAN's tier is the q = 0.5 percentile: same bound, same law.
    #[test]
    fn median_sketch_tracks_exact(
        values in prop::collection::vec(-1e4f64..1e4f64, 1..300),
    ) {
        let agg = Median;
        let exact = agg.compute(&values);
        let tier = agg.sketch().expect("median has a sketch tier");
        let partial = sketch_of(tier, &values);
        let est = tier.sketch_finalize(&partial);
        let rel = partial.error_bound().magnitude();
        prop_assert!(within(est, exact, rel), "median {est} vs {exact} (rel {rel})");
    }

    /// HLL++ COUNT DISTINCT stays within 4σ of the exact distinct count
    /// (σ = 1.04/√m, reported by the partial's error bound).
    #[test]
    fn count_distinct_sketch_tracks_exact(
        values in prop::collection::vec(0u32..5_000u32, 1..2_000),
    ) {
        let agg = CountDistinct;
        let vals: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        let exact = agg.compute(&vals);
        let tier = agg.sketch().expect("count_distinct has a sketch tier");
        let partial = sketch_of(tier, &vals);
        let est = tier.sketch_finalize(&partial);
        let sigma = partial.error_bound().magnitude();
        prop_assert!(
            (est - exact).abs() <= 4.0 * sigma * exact + 2.0,
            "distinct {est} vs {exact} (sigma {sigma})"
        );
    }

    /// Merge law at the aggregate level: splitting a stream across two
    /// partials and merging equals one single-stream partial.
    #[test]
    fn sketch_merge_is_single_stream(
        left in prop::collection::vec(0.1f64..1e4f64, 0..200),
        right in prop::collection::vec(0.1f64..1e4f64, 0..200),
    ) {
        for agg in [&Median as &dyn Aggregate, &CountDistinct] {
            let tier = agg.sketch().unwrap();
            let mut split = sketch_of(tier, &left);
            split.merge(&sketch_of(tier, &right)).unwrap();
            let mut whole: Vec<f64> = left.clone();
            whole.extend_from_slice(&right);
            let single = sketch_of(tier, &whole);
            let (a, b) = (tier.sketch_finalize(&split), tier.sketch_finalize(&single));
            prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    /// Retract law for the quantile family: merging a chunk in and
    /// retracting it again restores the original estimate exactly —
    /// the property the sliding window's eviction path relies on.
    #[test]
    fn quantile_retract_inverts_merge(
        base in prop::collection::vec(0.1f64..1e4f64, 1..200),
        chunk in prop::collection::vec(0.1f64..1e4f64, 1..200),
    ) {
        let tier = Median.sketch().unwrap();
        prop_assert!(tier.sketch_empty().retractable());
        let mut acc = sketch_of(tier, &base);
        let before = tier.sketch_finalize(&acc);
        let delta = sketch_of(tier, &chunk);
        acc.merge(&delta).unwrap();
        let retracted = acc.retract(&delta).unwrap();
        prop_assert!(retracted, "quantile sketches retract exactly");
        let after = tier.sketch_finalize(&acc);
        prop_assert_eq!(before.to_bits(), after.to_bits(), "{} vs {}", before, after);
    }
}

/// HLL is honest about not being retractable — the window re-merges
/// instead, and the registry exposes the split.
#[test]
fn count_distinct_declares_no_retraction() {
    let tier = CountDistinct.sketch().unwrap();
    assert!(!tier.sketch_empty().retractable());
    let mut p = tier.sketch_empty();
    p.insert(1.0);
    let d = tier.sketch_empty();
    assert!(!p.retract(&d).unwrap(), "Ok(false) signals re-merge");
}

/// The registry resolves the full sketch-aggregate vocabulary.
#[test]
fn registry_resolves_sketch_vocabulary() {
    for name in ["p50", "p90", "p99", "percentile:0.25", "count_distinct", "median"] {
        let agg = aggregate_by_name(name).unwrap_or_else(|| panic!("{name} must resolve"));
        assert!(agg.sketch().is_some(), "{name} must expose a sketch tier");
    }
}
