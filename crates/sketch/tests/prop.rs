//! Property tests for the sketch laws the streaming layer depends on:
//!
//! * accuracy — every estimate stays within the sketch's own
//!   runtime-reported error bound against an exact recompute;
//! * merge ≡ single-stream — splitting a stream across partials and
//!   merging gives the same sketch as one pass;
//! * retract ∘ merge ≡ identity (quantiles) — subtracting a chunk's
//!   partial restores the pre-merge state bit-for-bit.

use proptest::prelude::*;
use scorpion_sketch::{HyperLogLog, QuantileSketch, SpaceSaving};
use std::collections::HashMap;

/// Exact quantile under the sketch's rank convention:
/// `rank = clamp(ceil(q·n), 1, n)` over the ascending sort.
fn exact_quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Sketch error check: `|est − exact| ≤ α·|exact| + floor` with a hair
/// of slack for values landing exactly on a bucket boundary.
fn within_bound(est: f64, exact: f64, alpha: f64) -> bool {
    (est - exact).abs() <= alpha * exact.abs() * (1.0 + 1e-9) + 1e-9
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantile estimates stay inside the sketch's reported α at every
    /// probed q, for signed values across several magnitudes.
    #[test]
    fn quantile_within_reported_bound(
        values in prop::collection::vec(-1e6f64..1e6f64, 1..400),
        q in 0.0f64..1.0f64,
    ) {
        let mut s = QuantileSketch::default_sketch();
        for &v in &values {
            s.insert(v);
        }
        prop_assert_eq!(s.count(), values.len() as u64);
        let est = s.quantile(q);
        let exact = exact_quantile(&values, q);
        prop_assert!(
            within_bound(est, exact, s.alpha()),
            "q={} est={} exact={} alpha={}", q, est, exact, s.alpha()
        );
    }

    /// The bound survives forced compaction: a tiny bucket budget over
    /// wide magnitudes collapses repeatedly, and the *current* alpha
    /// still covers the estimate.
    #[test]
    fn quantile_bound_survives_collapse(
        exponents in prop::collection::vec(0usize..40, 16..200),
        q in 0.0f64..1.0f64,
    ) {
        let mut s = QuantileSketch::new(0.01, 8).unwrap();
        let values: Vec<f64> = exponents.iter().map(|&e| (1.5f64).powi(e as i32)).collect();
        for &v in &values {
            s.insert(v);
        }
        prop_assert!(s.compactions() > 0 || s.buckets() <= 8);
        let est = s.quantile(q);
        let exact = exact_quantile(&values, q);
        prop_assert!(
            within_bound(est, exact, s.alpha()),
            "est={} exact={} alpha={} compactions={}", est, exact, s.alpha(), s.compactions()
        );
    }

    /// Splitting the stream into k partials and merging them equals the
    /// single-stream sketch exactly (same counts, same level).
    #[test]
    fn quantile_merge_equals_single_stream(
        values in prop::collection::vec(-1e4f64..1e4f64, 1..300),
        splits in 1usize..5,
    ) {
        let mut single = QuantileSketch::default_sketch();
        let mut parts: Vec<QuantileSketch> =
            (0..splits).map(|_| QuantileSketch::default_sketch()).collect();
        for (i, &v) in values.iter().enumerate() {
            single.insert(v);
            parts[i % splits].insert(v);
        }
        let mut merged = parts[0].clone();
        for p in &parts[1..] {
            merged.merge(p).unwrap();
        }
        prop_assert_eq!(merged, single);
    }

    /// retract ∘ merge ≡ identity: merging a chunk partial into a total
    /// and retracting it restores the total bit-for-bit.
    #[test]
    fn quantile_retract_inverts_merge(
        base in prop::collection::vec(-1e5f64..1e5f64, 0..200),
        chunk in prop::collection::vec(-1e5f64..1e5f64, 1..80),
    ) {
        let mut total = QuantileSketch::default_sketch();
        for &v in &base {
            total.insert(v);
        }
        let mut part = QuantileSketch::default_sketch();
        for &v in &chunk {
            part.insert(v);
        }
        let before = total.clone();
        total.merge(&part).unwrap();
        total.retract(&part).unwrap();
        prop_assert_eq!(total, before);
    }

    /// HLL++ estimate lands within 4σ of the true distinct count (the
    /// deterministic hash makes this a fixed outcome per input set, so
    /// a generous sigma keeps the test stable without being vacuous).
    #[test]
    fn hll_within_four_sigma(
        distinct in 1usize..3000,
        dup_factor in 1usize..4,
    ) {
        let mut s = HyperLogLog::default_sketch();
        for rep in 0..dup_factor {
            let _ = rep;
            for i in 0..distinct {
                s.insert_f64(i as f64 * 1.618 + 0.25);
            }
        }
        let est = s.estimate();
        let tol = 4.0 * s.relative_error() * distinct as f64 + 1.0;
        prop_assert!(
            (est - distinct as f64).abs() <= tol,
            "est={} true={} tol={}", est, distinct, tol
        );
    }

    /// HLL merge equals the single-stream sketch register-for-register.
    #[test]
    fn hll_merge_equals_single_stream(
        values in prop::collection::vec(-1e6f64..1e6f64, 1..500),
        splits in 1usize..5,
    ) {
        let mut single = HyperLogLog::new(10).unwrap();
        let mut parts: Vec<HyperLogLog> =
            (0..splits).map(|_| HyperLogLog::new(10).unwrap()).collect();
        for (i, &v) in values.iter().enumerate() {
            single.insert_f64(v);
            parts[i % splits].insert_f64(v);
        }
        let mut merged = parts[0].clone();
        for p in &parts[1..] {
            merged.merge(p).unwrap();
        }
        prop_assert_eq!(merged, single);
    }

    /// SpaceSaving guarantee: counts never undercount, the overcount is
    /// bounded by n/k, and every key with true frequency > n/k is
    /// monitored.
    #[test]
    fn spacesaving_guarantee(
        draws in prop::collection::vec(0usize..40, 50..600),
        capacity in 4usize..16,
    ) {
        let mut s = SpaceSaving::new(capacity).unwrap();
        let mut truth: HashMap<String, u64> = HashMap::new();
        for &d in &draws {
            // Quadratic skew: low indices dominate.
            let key = format!("k{}", d * d / 40);
            s.insert(&key, 1);
            *truth.entry(key).or_insert(0) += 1;
        }
        let n = s.total();
        let k = s.capacity() as u64;
        prop_assert_eq!(n, draws.len() as u64);
        for h in s.heavy_hitters() {
            let t = truth.get(h.key.as_str()).copied().unwrap_or(0);
            prop_assert!(h.count >= t, "undercount {} {} < {}", h.key, h.count, t);
            prop_assert!(h.count - h.err <= t, "lower bound broken for {}", h.key);
            prop_assert!(h.err <= n / k, "err {} above n/k {}", h.err, n / k);
        }
        for (key, &t) in &truth {
            if t > n / k {
                prop_assert!(s.get(key).is_some(), "frequent key {} missing", key);
            }
        }
    }

    /// Merged SpaceSaving summaries still never undercount and keep
    /// very frequent keys monitored.
    #[test]
    fn spacesaving_merge_preserves_guarantee(
        draws in prop::collection::vec(0usize..40, 50..600),
        capacity in 4usize..16,
    ) {
        let mut a = SpaceSaving::new(capacity).unwrap();
        let mut b = SpaceSaving::new(capacity).unwrap();
        let mut truth: HashMap<String, u64> = HashMap::new();
        for (i, &d) in draws.iter().enumerate() {
            let key = format!("k{}", d * d / 40);
            if i % 2 == 0 { a.insert(&key, 1) } else { b.insert(&key, 1) }
            *truth.entry(key).or_insert(0) += 1;
        }
        a.merge(&b).unwrap();
        let n = a.total();
        let k = a.capacity() as u64;
        for h in a.heavy_hitters() {
            let t = truth.get(h.key.as_str()).copied().unwrap_or(0);
            prop_assert!(h.count >= t, "merged undercount for {}", h.key);
        }
        for (key, &t) in &truth {
            if t > 2 * n / k {
                prop_assert!(a.get(key).is_some(), "very frequent key {} missing", key);
            }
        }
    }
}
