//! MIN, MAX, and MEDIAN — aggregates that are **not** incrementally
//! removable (§5.1: "it is not in general possible to re-compute MAX after
//! removing an arbitrary subset of inputs without knowledge of the full
//! dataset"). They exercise Scorpion's black-box code paths.
//!
//! MIN/MAX still have an exact, merge-only state, `[extremum, n]`: a
//! streaming window re-merges its surviving chunks' states instead of
//! re-reading rows. The count tells the empty state, which recovers the
//! documented empty value `0.0`, from a genuine extremum. MEDIAN has no
//! constant-size exact state.

use crate::state::AggState;
use crate::traits::{AggProperties, Aggregate, IncrementalAggregate};

/// Merges the `[extremum, n]` state `other` into `into`, keeping `pick`
/// of the two extrema. An empty side contributes nothing.
fn merge_extremum(into: &mut AggState, other: &AggState, pick: fn(f64, f64) -> f64) {
    if other[1] > 0.0 {
        into[0] = if into[1] > 0.0 { pick(into[0], other[0]) } else { other[0] };
        into[1] += other[1];
    }
}

/// The extremum of an `[extremum, n]` state; `0.0` when it is empty.
fn recover_extremum(m: &AggState) -> f64 {
    if m[1] < 0.5 {
        0.0
    } else {
        m[0]
    }
}

/// `MAX(x)`. Black-box for the Scorer, since its `[max, n]` state merges
/// but cannot remove; anti-monotonic (`MAX.check(D) = True`, §5.3):
/// removing tuples can never increase the maximum, so Δ of a contained
/// predicate never exceeds Δ of its container. Empty bag → `0.0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Max;

impl Aggregate for Max {
    fn name(&self) -> &'static str {
        "max"
    }

    fn compute(&self, vals: &[f64]) -> f64 {
        vals.iter().copied().fold(f64::NEG_INFINITY, f64::max).max(if vals.is_empty() {
            0.0
        } else {
            f64::NEG_INFINITY
        })
    }

    fn anti_monotonic_check(&self, _vals: &[f64]) -> bool {
        true
    }

    fn properties(&self) -> AggProperties {
        AggProperties { independent: false }
    }

    fn incremental(&self) -> Option<&dyn IncrementalAggregate> {
        Some(self)
    }
}

impl IncrementalAggregate for Max {
    fn empty(&self) -> AggState {
        AggState::new(&[f64::NEG_INFINITY, 0.0])
    }
    fn state_one(&self, v: f64) -> AggState {
        AggState::new(&[v, 1.0])
    }
    fn merge(&self, into: &mut AggState, other: &AggState) {
        merge_extremum(into, other, f64::max);
    }
    fn removable(&self) -> bool {
        false
    }
    fn recover(&self, m: &AggState) -> f64 {
        recover_extremum(m)
    }
}

/// `MIN(x)`. Black-box for the Scorer, since its `[min, n]` state merges
/// but cannot remove. Empty bag → `0.0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Min;

impl Aggregate for Min {
    fn name(&self) -> &'static str {
        "min"
    }

    fn compute(&self, vals: &[f64]) -> f64 {
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    fn incremental(&self) -> Option<&dyn IncrementalAggregate> {
        Some(self)
    }
}

impl IncrementalAggregate for Min {
    fn empty(&self) -> AggState {
        AggState::new(&[f64::INFINITY, 0.0])
    }
    fn state_one(&self, v: f64) -> AggState {
        AggState::new(&[v, 1.0])
    }
    fn merge(&self, into: &mut AggState, other: &AggState) {
        merge_extremum(into, other, f64::min);
    }
    fn removable(&self) -> bool {
        false
    }
    fn recover(&self, m: &AggState) -> f64 {
        recover_extremum(m)
    }
}

/// `MEDIAN(x)` (lower median for even cardinalities). Black-box; the
/// classic example of a non-incrementally-removable, non-independent
/// aggregate. Empty bag → `0.0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Median;

impl Aggregate for Median {
    fn name(&self) -> &'static str {
        "median"
    }

    fn compute(&self, vals: &[f64]) -> f64 {
        if vals.is_empty() {
            return 0.0;
        }
        let mut v = vals.to_vec();
        let mid = (v.len() - 1) / 2;
        let (_, m, _) = v.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
        *m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{aggregate_by_name, Avg, Sum};

    #[test]
    fn max_and_min() {
        assert_eq!(Max.compute(&[1.0, 9.0, -4.0]), 9.0);
        assert_eq!(Min.compute(&[1.0, 9.0, -4.0]), -4.0);
        assert_eq!(Max.compute(&[]), 0.0);
        assert_eq!(Min.compute(&[]), 0.0);
        assert_eq!(Max.compute(&[-7.0]), -7.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(Median.compute(&[5.0, 1.0, 3.0]), 3.0);
        // Lower median of 4 elements.
        assert_eq!(Median.compute(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(Median.compute(&[]), 0.0);
        assert_eq!(Median.compute(&[8.0]), 8.0);
    }

    #[test]
    fn none_are_incrementally_removable() {
        assert!(!Max.incremental().unwrap().removable());
        assert!(!Min.incremental().unwrap().removable());
        assert!(Median.incremental().is_none());
    }

    #[test]
    fn max_is_anti_monotonic_min_median_are_not() {
        assert!(Max.anti_monotonic_check(&[-1.0, 2.0]));
        assert!(!Min.anti_monotonic_check(&[1.0]));
        assert!(!Median.anti_monotonic_check(&[1.0]));
    }

    #[test]
    fn none_are_independent() {
        assert!(!Max.properties().independent);
        assert!(!Min.properties().independent);
        assert!(!Median.properties().independent);
    }

    // ---- the exact state algebra: removable and merge-only -------------

    /// Every operator with an exact state, by canonical name.
    const EXACT: &[&str] = &["sum", "count", "avg", "stddev", "variance", "min", "max"];

    #[test]
    fn registry_exposes_exact_states() {
        for name in EXACT {
            let agg = aggregate_by_name(name).unwrap();
            assert!(agg.incremental().is_some(), "{name} should have an exact state");
        }
        assert!(aggregate_by_name("median").unwrap().incremental().is_none());
    }

    #[test]
    fn merge_of_disjoint_chunks_matches_blackbox() {
        let a = [3.0, -1.0, 8.0];
        let b = [2.5, 2.5];
        let all = [3.0, -1.0, 8.0, 2.5, 2.5];
        for name in EXACT {
            let agg = aggregate_by_name(name).unwrap();
            let m = agg.incremental().unwrap();
            let mut acc = m.state_of(&a);
            m.merge(&mut acc, &m.state_of(&b));
            let got = m.recover(&acc);
            let want = agg.compute(&all);
            assert!((got - want).abs() < 1e-9, "{name}: {got} != {want}");
        }
    }

    #[test]
    fn empty_state_is_identity_and_recovers_empty_value() {
        for name in EXACT {
            let agg = aggregate_by_name(name).unwrap();
            let m = agg.incremental().unwrap();
            assert_eq!(m.recover(&m.empty()), agg.compute(&[]), "{name}");
            let mut acc = m.state_of(&[4.0, 7.0]);
            let before = m.recover(&acc);
            m.merge(&mut acc, &m.empty());
            assert_eq!(m.recover(&acc), before, "{name}: identity law");
        }
    }

    #[test]
    fn removability_split() {
        for name in ["sum", "count", "avg", "stddev", "variance"] {
            let agg = aggregate_by_name(name).unwrap();
            assert!(agg.incremental().unwrap().removable(), "{name}");
        }
        for name in ["min", "max"] {
            let agg = aggregate_by_name(name).unwrap();
            assert!(!agg.incremental().unwrap().removable(), "{name}");
        }
    }

    #[test]
    fn remove_inverts_merge_for_additive_states() {
        let m = Sum.incremental().unwrap();
        let mut acc = m.state_of(&[5.0, 6.0]);
        let b = m.state_of(&[7.0]);
        m.merge(&mut acc, &b);
        assert_eq!(m.recover(&m.remove(&acc, &b)), 11.0);

        let m = Avg.incremental().unwrap();
        let mut acc = m.state_of(&[1.0, 3.0]);
        let b = m.state_of(&[100.0]);
        m.merge(&mut acc, &b);
        assert_eq!(m.recover(&m.remove(&acc, &b)), 2.0);
    }

    #[test]
    fn min_max_track_extrema_across_merge_order() {
        let chunks: [&[f64]; 3] = [&[5.0, 9.0], &[-2.0], &[7.0, 7.0]];
        for (agg, want) in [(&Min as &dyn Aggregate, -2.0), (&Max, 9.0)] {
            let m = agg.incremental().unwrap();
            // Forward order.
            let mut fwd = m.empty();
            for c in chunks {
                m.merge(&mut fwd, &m.state_of(c));
            }
            // Reverse order.
            let mut rev = m.empty();
            for c in chunks.iter().rev() {
                m.merge(&mut rev, &m.state_of(c));
            }
            assert_eq!(m.recover(&fwd), want, "{}", agg.name());
            assert_eq!(m.recover(&fwd), m.recover(&rev), "{}", agg.name());
        }
    }

    #[test]
    fn min_max_empty_chunks_do_not_poison() {
        let m = Max.incremental().unwrap();
        let mut acc = m.empty();
        m.merge(&mut acc, &m.empty());
        m.merge(&mut acc, &m.state_of(&[-3.0]));
        m.merge(&mut acc, &m.empty());
        assert_eq!(m.recover(&acc), -3.0);
    }
}
