//! Constant-size aggregate states.
//!
//! §5.1 requires incrementally removable aggregates to summarize a dataset
//! in a *constant-sized tuple*. [`AggState`] is that tuple: an inline,
//! fixed-capacity vector of up to four `f64` components (enough for
//! COUNT `[n]`, SUM `[s]`, AVG `[s, n]`, STDDEV/VARIANCE `[s, s², n]`,
//! and the merge-only MIN/MAX `[extremum, n]`), copyable and
//! allocation-free so Scorer hot loops never touch the heap. The
//! componentwise operations below are the additive algebras' `merge`,
//! `remove`, and the §6.3 scaling.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Maximum number of state components.
pub const MAX_STATE: usize = 4;

/// An inline, constant-size aggregate state vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggState {
    vals: [f64; MAX_STATE],
    len: u8,
}

impl AggState {
    /// Builds a state from components. Panics if more than
    /// [`MAX_STATE`] components are supplied.
    pub fn new(components: &[f64]) -> Self {
        assert!(components.len() <= MAX_STATE, "aggregate state limited to {MAX_STATE} components");
        let mut vals = [0.0; MAX_STATE];
        vals[..components.len()].copy_from_slice(components);
        AggState { vals, len: components.len() as u8 }
    }

    /// The all-zero state with `len` components — the identity for
    /// additive state algebras (`merge(zero, m) == m`).
    pub fn zero(len: usize) -> Self {
        assert!(len <= MAX_STATE);
        AggState { vals: [0.0; MAX_STATE], len: len as u8 }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the state has no components.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrows the components.
    pub fn as_slice(&self) -> &[f64] {
        &self.vals[..self.len as usize]
    }

    /// Componentwise sum (the `merge` of additive state algebras).
    #[inline]
    pub fn add(&self, other: &AggState) -> AggState {
        debug_assert_eq!(self.len, other.len);
        let mut out = *self;
        for i in 0..self.len as usize {
            out.vals[i] += other.vals[i];
        }
        out
    }

    /// Componentwise difference (the `remove` of additive state algebras).
    #[inline]
    pub fn sub(&self, other: &AggState) -> AggState {
        debug_assert_eq!(self.len, other.len);
        let mut out = *self;
        for i in 0..self.len as usize {
            out.vals[i] -= other.vals[i];
        }
        out
    }

    /// Componentwise scaling: the state of `n` copies of the summarized
    /// tuples, for additive algebras. This is the fast path behind the
    /// Merger's cached-tuple approximation (§6.3), where the paper writes
    /// `update(m_t, ..., m_t)` with `N` copies. `n` may be fractional:
    /// the approximation estimates partial overlap contributions.
    #[inline]
    pub fn scale(&self, n: f64) -> AggState {
        let mut out = *self;
        for i in 0..self.len as usize {
            out.vals[i] *= n;
        }
        out
    }

    /// In-place accumulate (`self += other`), avoiding a copy in hot loops.
    #[inline]
    pub fn accumulate(&mut self, other: &AggState) {
        debug_assert_eq!(self.len, other.len);
        for i in 0..self.len as usize {
            self.vals[i] += other.vals[i];
        }
    }
}

impl Index<usize> for AggState {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        debug_assert!(i < self.len as usize);
        &self.vals[i]
    }
}

impl IndexMut<usize> for AggState {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        debug_assert!(i < self.len as usize);
        &mut self.vals[i]
    }
}

impl fmt::Display for AggState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let s = AggState::new(&[1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(s[1], 2.0);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "limited")]
    fn too_many_components_panics() {
        AggState::new(&[0.0; 5]);
    }

    #[test]
    fn zero_is_additive_identity() {
        let s = AggState::new(&[4.0, 5.0]);
        let z = AggState::zero(2);
        assert_eq!(z.add(&s), s);
        assert_eq!(s.add(&z), s);
        assert_eq!(s.sub(&z), s);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = AggState::new(&[10.0, 3.0]);
        let b = AggState::new(&[4.0, 1.0]);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&b).as_slice(), &[6.0, 2.0]);
    }

    #[test]
    fn scale_matches_repeated_add() {
        let a = AggState::new(&[2.0, 1.0]);
        let mut acc = AggState::zero(2);
        for _ in 0..5 {
            acc.accumulate(&a);
        }
        assert_eq!(a.scale(5.0), acc);
    }

    #[test]
    fn display() {
        assert_eq!(AggState::new(&[1.0, 2.5]).to_string(), "[1, 2.5]");
        assert_eq!(AggState::zero(0).to_string(), "[]");
    }
}
