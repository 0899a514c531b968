//! The aggregate-property framework (§5 of the paper).
//!
//! Scorpion works with arbitrary user-defined aggregates, but three
//! declared properties unlock its efficient algorithms:
//!
//! 1. **Incrementally removable** (§5.1) — the aggregate decomposes into
//!    `state` / `merge` / `remove` / `recover`, so the result of deleting
//!    a subset can be computed reading only the deleted tuples. Modeled by
//!    [`IncrementalAggregate`] with [`IncrementalAggregate::removable`]
//!    set.
//! 2. **Independent** (§5.2) — input tuples influence the result
//!    independently of one another, enabling the DT partitioner's
//!    per-tuple-influence regression trees. Declared via
//!    [`AggProperties::independent`].
//! 3. **Anti-monotonic Δ** (§5.3) — a predicate's Δ bounds the Δ of every
//!    contained predicate, enabling MC's pruning. Because the property may
//!    be data-dependent (SUM requires non-negative inputs), it is declared
//!    by the `check` function [`Aggregate::anti_monotonic_check`], exactly
//!    as the paper prescribes.

use crate::state::AggState;

/// Statically declared properties of an aggregate operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AggProperties {
    /// §5.2: tuples influence the result independently. Set for
    /// COUNT/SUM-based arithmetic aggregates (SUM, COUNT, AVG, STDDEV,
    /// VARIANCE).
    pub independent: bool,
}

/// A (possibly black-box) aggregate function over a bag of `f64` values.
///
/// `compute(&[])` must return the aggregate's *empty value*: `0` for
/// SUM/COUNT-style aggregates and `NaN`-free neutral values elsewhere (we
/// standardize on `0.0`, documented per implementation). The Scorer relies
/// on this totalization when a predicate deletes an entire input group.
pub trait Aggregate: Send + Sync {
    /// Operator name (lower case, e.g. `"avg"`).
    fn name(&self) -> &'static str;

    /// Evaluates the aggregate over `vals`.
    fn compute(&self, vals: &[f64]) -> f64;

    /// Declared properties.
    fn properties(&self) -> AggProperties {
        AggProperties::default()
    }

    /// §5.3 `check(D)`: returns `true` when Δ is anti-monotonic over this
    /// data (e.g. SUM over non-negative values). The default declares the
    /// property absent.
    fn anti_monotonic_check(&self, _vals: &[f64]) -> bool {
        false
    }

    /// The exact constant-size state algebra, when the operator has one:
    /// removable for SUM/COUNT/AVG/STDDEV/VARIANCE, merge-only for
    /// MIN/MAX (see [`IncrementalAggregate::removable`]). MEDIAN,
    /// PERCENTILE and COUNT DISTINCT have none. `None` forces black-box
    /// evaluation, and a streaming window then keeps raw values.
    fn incremental(&self) -> Option<&dyn IncrementalAggregate> {
        None
    }
}

/// §5.1: the exact state algebra — `state` / `merge` / `remove` /
/// `recover` over a constant-size [`AggState`].
///
/// Laws (verified by the property tests in `tests/prop.rs`):
///
/// 1. `recover(state_of(D)) == compute(D)`, up to float round-off;
/// 2. `merge` is associative and commutative with identity `empty()`,
///    so merging the states of a partition of `D` recovers `compute(D)`
///    (up to round-off; bit for bit for MIN/MAX);
/// 3. when [`IncrementalAggregate::removable`],
///    `recover(remove(state_of(D), state_of(S))) == compute(D − S)` for
///    every sub-bag `S`.
///
/// Removable algebras are *additive*: `merge` is componentwise `+` and
/// `remove` componentwise `−` (the defaults), `state_of` merges the
/// values' single-tuple states in the order given (the default), and
/// the state of `n` copies of a tuple is [`AggState::scale`]. The
/// Scorer's masked fold and the Merger's cached-tuple estimate (§6.3)
/// rely on that. MIN/MAX are merge-only: their `[extremum, n]` state
/// cannot forget the extremum without the runner-up.
pub trait IncrementalAggregate: Aggregate {
    /// The identity of `merge`: the state of the empty bag.
    fn empty(&self) -> AggState;

    /// `state({v})`: the state of a single tuple.
    fn state_one(&self, v: f64) -> AggState;

    /// `state(D)`: the state summarizing `vals`.
    fn state_of(&self, vals: &[f64]) -> AggState {
        let mut acc = self.empty();
        for &v in vals {
            self.merge(&mut acc, &self.state_one(v));
        }
        acc
    }

    /// `(n, state(S))` for the bag `S` of the `n` values
    /// `vals[(i << 6) | j]` at the set bits `j` of `a[i] & b[i]`, in
    /// ascending order: the merges [`IncrementalAggregate::state_of`]
    /// makes over those values gathered into a buffer, without the
    /// buffer. `a` and `b` are equally long, and `vals` covers every
    /// selected index.
    ///
    /// The words are ANDed eight at a time, with no branch, and only the
    /// chunks that select a value are walked bit by bit. As a provided
    /// method it is compiled for each implementing type, so the walk
    /// calls that type's `state_one` and `merge` directly, even when it
    /// is reached through `dyn IncrementalAggregate`.
    fn state_of_selected(&self, vals: &[f64], a: &[u64], b: &[u64]) -> (usize, AggState) {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = self.empty();
        let mut n = 0usize;
        let mut fold = |wi: usize, mut w: u64| {
            n += w.count_ones() as usize;
            while w != 0 {
                self.merge(
                    &mut acc,
                    &self.state_one(vals[(wi << 6) | w.trailing_zeros() as usize]),
                );
                w &= w - 1;
            }
        };
        let chunked = a.len() & !7;
        for wi in (0..chunked).step_by(8) {
            let mut anded = [0u64; 8];
            let mut any = 0u64;
            for (lane, x) in anded.iter_mut().enumerate() {
                *x = a[wi + lane] & b[wi + lane];
                any |= *x;
            }
            if any != 0 {
                for (lane, &x) in anded.iter().enumerate() {
                    fold(wi + lane, x);
                }
            }
        }
        for wi in chunked..a.len() {
            fold(wi, a[wi] & b[wi]);
        }
        (n, acc)
    }

    /// Combines the state of a disjoint bag into `into`.
    fn merge(&self, into: &mut AggState, other: &AggState) {
        into.accumulate(other);
    }

    /// True when [`IncrementalAggregate::remove`] is exact (§5.1's
    /// incrementally removable). MIN/MAX clear it.
    fn removable(&self) -> bool {
        true
    }

    /// `remove(m_D, m_S)`: the state of `D − S`. Defined only when
    /// [`IncrementalAggregate::removable`].
    fn remove(&self, d: &AggState, s: &AggState) -> AggState {
        debug_assert!(self.removable(), "{} states are merge-only", self.name());
        d.sub(s)
    }

    /// `recover(m)`: the aggregate value summarized by `m`.
    fn recover(&self, m: &AggState) -> f64;

    /// `Δ = recover(full) − recover(remove(full, state_of(S)))` for any
    /// bag `S` of `n` tuples whose values add up to `sum`, when that
    /// pair determines the removed state (SUM, COUNT, AVG). `full_value`
    /// must equal `recover(full)`.
    ///
    /// This is the hook the approximate influence search's closed-form
    /// interval bounds rest on: if the removed subset's value-sum is
    /// only known to lie in `[lo, hi]`, evaluating the hook at both
    /// endpoints brackets the true Δ, because it is monotone in `sum`
    /// for fixed `n` for every aggregate that implements it. It runs
    /// three times per candidate per group, so implementations are
    /// allocation-free closed forms. Aggregates whose state needs more
    /// than `(n, sum)` (e.g. STDDEV's sum of squares) keep the default
    /// `None` and are scored exactly under approximate mode.
    fn delta_from_count_sum(
        &self,
        _full: &AggState,
        _full_value: f64,
        _n: f64,
        _sum: f64,
    ) -> Option<f64> {
        None
    }
}

/// An aggregate evaluated as a black box: it forwards everything to the
/// wrapped operator except its exact state algebra, so the Scorer
/// re-aggregates the surviving tuples and a streaming window keeps raw
/// values. For ablations and parity checks of the §5.1 fast path.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlackBox<A>(pub A);

impl<A: Aggregate> Aggregate for BlackBox<A> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn compute(&self, vals: &[f64]) -> f64 {
        self.0.compute(vals)
    }

    fn properties(&self) -> AggProperties {
        self.0.properties()
    }

    fn anti_monotonic_check(&self, vals: &[f64]) -> bool {
        self.0.anti_monotonic_check(vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately black-box aggregate for exercising defaults.
    struct Opaque;
    impl Aggregate for Opaque {
        fn name(&self) -> &'static str {
            "opaque"
        }
        fn compute(&self, vals: &[f64]) -> f64 {
            vals.iter().copied().fold(0.0, f64::max)
        }
    }

    #[test]
    fn default_properties_are_conservative() {
        let a = Opaque;
        assert!(!a.properties().independent);
        assert!(!a.anti_monotonic_check(&[1.0]));
        assert!(a.incremental().is_none());
    }

    #[test]
    fn blackbox_hides_only_the_exact_state() {
        let b = BlackBox(crate::Sum);
        assert!(b.incremental().is_none());
        assert_eq!(b.name(), "sum");
        assert_eq!(b.compute(&[1.0, 2.5]), 3.5);
        assert!(b.properties().independent);
        assert!(b.anti_monotonic_check(&[0.0]) && !b.anti_monotonic_check(&[-1.0]));
    }

    #[test]
    fn default_state_of_accumulates_state_one() {
        struct Summish;
        impl Aggregate for Summish {
            fn name(&self) -> &'static str {
                "summish"
            }
            fn compute(&self, vals: &[f64]) -> f64 {
                vals.iter().sum()
            }
        }
        impl IncrementalAggregate for Summish {
            fn empty(&self) -> AggState {
                AggState::zero(1)
            }
            fn state_one(&self, v: f64) -> AggState {
                AggState::new(&[v])
            }
            fn recover(&self, m: &AggState) -> f64 {
                m[0]
            }
        }
        let s = Summish;
        let st = s.state_of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.recover(&st), 6.0);
        let mut merged = s.state_of(&[1.0]);
        s.merge(&mut merged, &s.state_of(&[2.0, 3.0]));
        assert_eq!(merged, st);
        let removed = s.remove(&st, &s.state_of(&[2.0]));
        assert_eq!(s.recover(&removed), 4.0);
        assert_eq!(s.recover(&s.state_one(2.0).scale(3.0)), 6.0);
    }
}
