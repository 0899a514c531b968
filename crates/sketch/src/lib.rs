//! # scorpion-sketch
//!
//! Dependency-free probabilistic sketches backing Scorpion's streaming
//! layer: bounded-size summaries that are **mergeable** (chunk partials
//! combine without re-reading rows), where possible **retractable**
//! (an expired chunk's partial can be subtracted), and always carry a
//! **runtime-queryable error bound**. Three summaries:
//!
//! * [`QuantileSketch`] — a UDD/DDSketch-style log-bucketed quantile
//!   summary with a *relative value* guarantee: any reported quantile
//!   `x̂` satisfies `|x̂ − x| ≤ α·|x|` against the exact quantile `x`
//!   (same rank definition). Bucket counts form a group, so `retract`
//!   is an **exact** inverse of `merge` at matched compaction levels;
//!   when the bucket budget overflows, adjacent buckets collapse
//!   pairwise and `α` grows — [`QuantileSketch::alpha`] always reports
//!   the *current* guarantee.
//! * [`HyperLogLog`] — HLL++-style dense distinct counting with
//!   register-max merge and a `≈1.04/√m` relative standard error.
//!   Not retractable (register max is a semilattice, not a group);
//!   windows recover eviction by re-merging surviving partials.
//! * [`SpaceSaving`] — heavy-hitter summary over string keys with the
//!   classic guarantee `true ≤ count ≤ true + n/k` and a lossless-ish
//!   mergeable form (counts add, error bounds add).
//!
//! [`SketchPartial`] packages the value-sketches behind one enum, so
//! aggregate operators can treat "a sketch partial" uniformly (the shape
//! `scorpion-agg` exposes through its `SketchAggregate` trait).
//!
//! Everything here is deterministic: fixed hash functions, no RNG, no
//! time — two processes that ingest the same values produce bit-equal
//! sketches.

#![warn(missing_docs)]

mod error;
mod hash;
mod hll;
mod partial;
mod quantile;
mod spacesaving;

pub use error::{ErrorBound, SketchError};
pub use hash::splitmix64;
pub use hll::HyperLogLog;
pub use partial::SketchPartial;
pub use quantile::QuantileSketch;
pub use spacesaving::{HeavyHitter, SpaceSaving};

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SketchError>;
