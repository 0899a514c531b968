//! SUM, COUNT, and AVG — incrementally removable, independent aggregates.

use crate::state::AggState;
use crate::traits::{AggProperties, Aggregate, IncrementalAggregate};

/// `SUM(x)`. Incrementally removable with state `[sum]`; independent;
/// anti-monotonic over non-negative data (§5.3's `SUM.check`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sum;

impl Aggregate for Sum {
    fn name(&self) -> &'static str {
        "sum"
    }

    fn compute(&self, vals: &[f64]) -> f64 {
        vals.iter().sum()
    }

    fn properties(&self) -> AggProperties {
        AggProperties { independent: true }
    }

    /// `SUM.check(D) = |{d ∈ D | d < 0}| == 0`.
    fn anti_monotonic_check(&self, vals: &[f64]) -> bool {
        vals.iter().all(|&v| v >= 0.0)
    }

    fn incremental(&self) -> Option<&dyn IncrementalAggregate> {
        Some(self)
    }
}

impl IncrementalAggregate for Sum {
    fn empty(&self) -> AggState {
        AggState::zero(1)
    }
    fn state_one(&self, v: f64) -> AggState {
        AggState::new(&[v])
    }
    fn recover(&self, m: &AggState) -> f64 {
        m[0]
    }
    fn delta_from_count_sum(
        &self,
        full: &AggState,
        full_value: f64,
        _n: f64,
        sum: f64,
    ) -> Option<f64> {
        // The remaining state is `[full[0] − sum]`.
        Some(full_value - (full[0] - sum))
    }
}

/// `COUNT(*)`. Incrementally removable with state `[n]`; independent;
/// always anti-monotonic (`COUNT.check(D) = True`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Count;

impl Aggregate for Count {
    fn name(&self) -> &'static str {
        "count"
    }

    fn compute(&self, vals: &[f64]) -> f64 {
        vals.len() as f64
    }

    fn properties(&self) -> AggProperties {
        AggProperties { independent: true }
    }

    fn anti_monotonic_check(&self, _vals: &[f64]) -> bool {
        true
    }

    fn incremental(&self) -> Option<&dyn IncrementalAggregate> {
        Some(self)
    }
}

impl IncrementalAggregate for Count {
    fn empty(&self) -> AggState {
        AggState::zero(1)
    }
    fn state_one(&self, _v: f64) -> AggState {
        AggState::new(&[1.0])
    }
    fn recover(&self, m: &AggState) -> f64 {
        m[0]
    }
    fn delta_from_count_sum(
        &self,
        full: &AggState,
        full_value: f64,
        n: f64,
        _sum: f64,
    ) -> Option<f64> {
        // COUNT ignores values entirely, so the interval collapses to a
        // point: Δ is exact whenever `n` is.
        Some(full_value - (full[0] - n))
    }
}

/// `AVG(x)`. Incrementally removable with state `[sum, n]` (§5.1's worked
/// example); independent. `AVG` of the empty bag is defined as `0.0` so the
/// Scorer's Δ stays total when a predicate deletes an entire group.
#[derive(Debug, Clone, Copy, Default)]
pub struct Avg;

impl Aggregate for Avg {
    fn name(&self) -> &'static str {
        "avg"
    }

    fn compute(&self, vals: &[f64]) -> f64 {
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    fn properties(&self) -> AggProperties {
        AggProperties { independent: true }
    }

    fn incremental(&self) -> Option<&dyn IncrementalAggregate> {
        Some(self)
    }
}

impl IncrementalAggregate for Avg {
    fn empty(&self) -> AggState {
        AggState::zero(2)
    }
    fn state_one(&self, v: f64) -> AggState {
        AggState::new(&[v, 1.0])
    }
    fn recover(&self, m: &AggState) -> f64 {
        // Empty (or numerically vanished) population recovers the empty
        // value 0.0 rather than NaN.
        if m[1].abs() < 0.5 {
            0.0
        } else {
            m[0] / m[1]
        }
    }
    fn delta_from_count_sum(
        &self,
        full: &AggState,
        full_value: f64,
        n: f64,
        sum: f64,
    ) -> Option<f64> {
        // Mirrors `recover` on the removed state `[full[0]−sum, full[1]−n]`,
        // including its empty-population convention.
        let (rs, rn) = (full[0] - sum, full[1] - n);
        Some(full_value - if rn.abs() < 0.5 { 0.0 } else { rs / rn })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_basics() {
        assert_eq!(Sum.compute(&[1.0, 2.0, 3.5]), 6.5);
        assert_eq!(Sum.compute(&[]), 0.0);
        assert!(Sum.properties().independent);
        assert!(Sum.anti_monotonic_check(&[0.0, 1.0]));
        assert!(!Sum.anti_monotonic_check(&[1.0, -0.1]));
    }

    #[test]
    fn count_basics() {
        assert_eq!(Count.compute(&[7.0, 8.0]), 2.0);
        assert_eq!(Count.compute(&[]), 0.0);
        assert!(Count.anti_monotonic_check(&[-5.0]));
    }

    #[test]
    fn avg_basics() {
        assert_eq!(Avg.compute(&[2.0, 4.0]), 3.0);
        assert_eq!(Avg.compute(&[]), 0.0);
        assert!(!Avg.anti_monotonic_check(&[1.0]));
    }

    #[test]
    fn avg_incremental_matches_paper_example() {
        // §3.2: g_α2 = {35, 35, 100}; removing T4 (35) leaves avg 67.5.
        let avg = Avg;
        let d = avg.state_of(&[35.0, 35.0, 100.0]);
        assert!((avg.recover(&d) - 56.666).abs() < 1e-2);
        let removed = avg.remove(&d, &avg.state_one(35.0));
        assert!((avg.recover(&removed) - 67.5).abs() < 1e-9);
        // Removing T6 (100) leaves avg 35.
        let removed = avg.remove(&d, &avg.state_one(100.0));
        assert!((avg.recover(&removed) - 35.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_equals_blackbox_for_all_three() {
        let data = [3.0, -1.0, 7.5, 0.0, 2.25];
        let removed = [1usize, 3];
        let kept: Vec<f64> = data
            .iter()
            .enumerate()
            .filter(|(i, _)| !removed.contains(i))
            .map(|(_, &v)| v)
            .collect();
        let rm: Vec<f64> = removed.iter().map(|&i| data[i]).collect();
        for agg in [&Sum as &dyn Aggregate, &Count, &Avg] {
            let inc = agg.incremental().unwrap();
            let d = inc.state_of(&data);
            let s = inc.state_of(&rm);
            let got = inc.recover(&inc.remove(&d, &s));
            let want = agg.compute(&kept);
            assert!(
                (got - want).abs() < 1e-9,
                "{}: incremental {got} != blackbox {want}",
                agg.name()
            );
        }
    }

    #[test]
    fn avg_remove_everything_recovers_empty_value() {
        let avg = Avg;
        let d = avg.state_of(&[5.0, 6.0]);
        let empty = avg.remove(&d, &d);
        assert_eq!(avg.recover(&empty), 0.0);
    }

    #[test]
    fn merge_combines_disjoint_subsets() {
        let avg = Avg;
        let mut m = avg.state_of(&[1.0, 2.0]);
        avg.merge(&mut m, &avg.state_of(&[3.0]));
        assert_eq!(avg.recover(&m), 2.0);
    }
}
