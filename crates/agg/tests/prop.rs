//! Property tests for the aggregate state algebra (§5.1 laws).

use proptest::prelude::*;
use scorpion_agg::{aggregate_by_name, Aggregate, Sum};

/// The removable algebras.
const INCREMENTAL: &[&str] = &["sum", "count", "avg", "stddev", "variance"];

/// Every exact algebra: the removable ones plus merge-only MIN/MAX.
const EXACT: &[&str] = &["sum", "count", "avg", "stddev", "variance", "min", "max"];

/// Absolute tolerance for comparing two evaluations of `name` over data
/// whose magnitude is bounded by `scale`. STDDEV needs a wider band: the
/// square root amplifies cancellation error without bound as the true
/// deviation approaches zero (err_std ≈ sqrt(err_var)).
fn tol(name: &str, scale: f64) -> f64 {
    let scale = scale.max(1.0);
    match name {
        "stddev" => 1e-4 * scale,
        _ => 1e-7 * scale,
    }
}

/// `v`, or a non-finite value picked by `pick` when `pick < 3`.
fn special(v: f64, pick: u32) -> f64 {
    match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => v,
    }
}

proptest! {
    /// `recover(remove(state(D), state(S))) == compute(D − S)` for every
    /// incrementally removable aggregate and every subset S.
    #[test]
    fn incremental_remove_equals_blackbox(
        data in prop::collection::vec(-1e6f64..1e6, 1..200),
        mask in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let removed: Vec<f64> = data
            .iter()
            .zip(mask.iter().cycle())
            .filter(|(_, &m)| m)
            .map(|(&v, _)| v)
            .collect();
        let kept: Vec<f64> = data
            .iter()
            .zip(mask.iter().cycle())
            .filter(|(_, &m)| !m)
            .map(|(&v, _)| v)
            .collect();
        for name in INCREMENTAL {
            let agg = aggregate_by_name(name).unwrap();
            let inc = agg.incremental().unwrap();
            let got = inc.recover(&inc.remove(&inc.state_of(&data), &inc.state_of(&removed)));
            let want = agg.compute(&kept);
            let scale = want.abs().max(data.iter().fold(0.0f64, |a, &b| a.max(b.abs())));
            prop_assert!(
                (got - want).abs() <= tol(name, scale),
                "{name}: {got} != {want}"
            );
        }
    }

    /// `merge` over any partition of D equals `state(D)` up to recover —
    /// bit for bit for MIN/MAX, whose merge only picks.
    #[test]
    fn update_is_partition_invariant(
        data in prop::collection::vec(-1e3f64..1e3, 1..100),
        split in 0usize..100,
    ) {
        let cut = split % data.len();
        let (a, b) = data.split_at(cut);
        for name in EXACT {
            let agg = aggregate_by_name(name).unwrap();
            let inc = agg.incremental().unwrap();
            let mut merged = inc.state_of(a);
            inc.merge(&mut merged, &inc.state_of(b));
            let direct = inc.state_of(&data);
            let (got, want) = (inc.recover(&merged), inc.recover(&direct));
            if inc.removable() {
                prop_assert!((got - want).abs() <= tol(name, 1e3), "{name}");
            } else {
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{}", name);
                prop_assert_eq!(got.to_bits(), agg.compute(&data).to_bits(), "{}", name);
            }
        }
    }

    /// `state_one(v).scale(n)` recovers the same value as a bag of n
    /// copies of v.
    #[test]
    fn scale_equals_replication(v in -1e3f64..1e3, n in 1usize..50) {
        for name in INCREMENTAL {
            let agg = aggregate_by_name(name).unwrap();
            let inc = agg.incremental().unwrap();
            let scaled = inc.state_one(v).scale(n as f64);
            let copies = vec![v; n];
            let got = inc.recover(&scaled);
            let want = agg.compute(&copies);
            prop_assert!((got - want).abs() <= tol(name, v.abs()), "{name}");
        }
    }

    /// The approximate search's closed form: for SUM/COUNT/AVG,
    /// `delta_from_count_sum(full, recover(full), |S|, ΣS)` is bitwise
    /// `recover(full) − recover(remove(full, state_of(S)))`, with `ΣS`
    /// added left to right from 0.0. Every other exact algebra declines.
    #[test]
    fn delta_from_count_sum_is_the_composed_delta(
        data in prop::collection::vec(-1e6f64..1e6, 1..100),
        mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let removed: Vec<f64> = data
            .iter()
            .zip(mask.iter().cycle())
            .filter(|(_, &m)| m)
            .map(|(&v, _)| v)
            .collect();
        let n = removed.len() as f64;
        let sum = removed.iter().fold(0.0, |acc, &v| acc + v);
        for name in EXACT {
            let agg = aggregate_by_name(name).unwrap();
            let inc = agg.incremental().unwrap();
            let full = inc.state_of(&data);
            let full_value = inc.recover(&full);
            let got = inc.delta_from_count_sum(&full, full_value, n, sum);
            if ["sum", "count", "avg"].contains(name) {
                let want = full_value - inc.recover(&inc.remove(&full, &inc.state_of(&removed)));
                prop_assert_eq!(got.map(f64::to_bits), Some(want.to_bits()), "{}", name);
            } else {
                prop_assert!(got.is_none(), "{name} state is not determined by (n, sum)");
            }
        }
    }

    /// A NaN or ±∞ input makes `recover(state_of(D))` NaN exactly when
    /// `compute(D)` is NaN.
    #[test]
    fn recover_and_compute_agree_on_nan(
        data in prop::collection::vec((-1e3f64..1e3, 0u32..12), 0..20),
    ) {
        let vals: Vec<f64> = data.iter().map(|&(v, pick)| special(v, pick)).collect();
        for name in INCREMENTAL {
            let agg = aggregate_by_name(name).unwrap();
            let inc = agg.incremental().unwrap();
            let (got, want) = (inc.recover(&inc.state_of(&vals)), agg.compute(&vals));
            prop_assert_eq!(got.is_nan(), want.is_nan(), "{}: {} vs {} on {:?}", name, got, want, vals);
        }
    }

    /// Δ-anti-monotonicity for SUM over non-negative data: removing a
    /// *larger* subset produces a Δ at least as large (§5.3).
    #[test]
    fn sum_delta_anti_monotone_on_nonnegative(
        data in prop::collection::vec(0.0f64..1e4, 1..100),
        k in 0usize..100,
    ) {
        let k = k % data.len();
        let total = Sum.compute(&data);
        // Nested subsets: first k+1 elements contain first k elements.
        let small: f64 = data[..k].iter().sum();
        let large: f64 = data[..k + 1].iter().sum();
        let delta_small = total - (total - small);
        let delta_large = total - (total - large);
        prop_assert!(delta_large + 1e-9 >= delta_small);
    }

    /// Black-box aggregates stay total on arbitrary inputs.
    #[test]
    fn order_aggregates_total(data in prop::collection::vec(-1e6f64..1e6, 0..50)) {
        for name in ["min", "max", "median"] {
            let agg = aggregate_by_name(name).unwrap();
            let v = agg.compute(&data);
            prop_assert!(v.is_finite());
        }
    }

    /// Median is always an element of a non-empty input bag.
    #[test]
    fn median_is_witness(data in prop::collection::vec(-1e3f64..1e3, 1..50)) {
        let agg = aggregate_by_name("median").unwrap();
        let m = agg.compute(&data);
        prop_assert!(data.contains(&m));
    }
}

/// SplitMix64 for the word-walk property below.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A word whose bits are set with a density drawn per word: none,
    /// all, or about one in 2, 8 or 64.
    fn word(&mut self) -> u64 {
        match self.below(6) {
            0 => 0,
            1 => u64::MAX,
            2 => self.next(),
            3 => self.next() & self.next() & self.next(),
            _ => 1 << self.below(64),
        }
    }
}

/// `state_of_selected` folds exactly what gathering the selected values
/// and calling `state_of` folds, bit for bit, for every removable
/// algebra: over random group and predicate word masks of 0 to 40 words
/// (every remainder of the eight-word chunks), with values that include
/// NaN, ±∞ and ±0.0.
#[test]
fn state_of_selected_is_gather_then_state_of() {
    let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e308, -3.5, 0.1, 7.0];
    let mut rng = Mix(0xA66);
    let mut selected = 0;
    for case in 0..400 {
        let words = rng.below(41) as usize;
        let a: Vec<u64> = (0..words).map(|_| rng.word()).collect();
        let b: Vec<u64> = (0..words).map(|_| rng.word()).collect();
        let vals: Vec<f64> = (0..words * 64)
            .map(|_| match rng.below(3) {
                0 => values[rng.below(values.len() as u64) as usize],
                _ => (rng.next() >> 11) as f64 / (1u64 << 40) as f64 - 4096.0,
            })
            .collect();
        let gathered: Vec<f64> = (0..words * 64)
            .filter(|&i| (a[i >> 6] & b[i >> 6]) >> (i & 63) & 1 == 1)
            .map(|i| vals[i])
            .collect();
        selected += gathered.len();
        for name in INCREMENTAL {
            let inc = aggregate_by_name(name).unwrap();
            let inc = inc.incremental().unwrap();
            let (n, got) = inc.state_of_selected(&vals, &a, &b);
            let want = inc.state_of(&gathered);
            let bits = |s: &scorpion_agg::AggState| -> Vec<u64> {
                s.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(n, gathered.len(), "case {case}, {name}");
            assert_eq!(bits(&got), bits(&want), "case {case}, {name}");
        }
    }
    assert!(selected > 20_000, "only {selected} values selected");
}
