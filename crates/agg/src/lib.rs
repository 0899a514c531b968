//! # scorpion-agg
//!
//! The aggregate-property framework of the Scorpion paper (§5): aggregate
//! operators annotated with the three properties that unlock efficient
//! influence search —
//!
//! * **incrementally removable** (§5.1): [`IncrementalAggregate`]'s
//!   `state` / `merge` / `remove` / `recover` algebra lets the Scorer
//!   evaluate a predicate's influence by reading only the deleted
//!   tuples;
//! * **independent** (§5.2): declared via
//!   [`AggProperties::independent`], enables the DT partitioner;
//! * **anti-monotonic Δ** (§5.3): declared via the data-dependent
//!   [`Aggregate::anti_monotonic_check`], enables MC's pruning.
//!
//! [`IncrementalAggregate`], reached through
//! [`Aggregate::incremental`], is the one exact state algebra. The same
//! constant-size state serves the Scorer's deletions and a streaming
//! window's per-chunk summaries, which `scorpion-stream` merges instead
//! of re-reading rows. SUM/COUNT/AVG/STDDEV/VARIANCE are removable
//! ([`IncrementalAggregate::removable`]); MIN/MAX keep a merge-only
//! `[extremum, n]` state; MEDIAN, the [`Percentile`] family and
//! [`CountDistinct`] have none, so they are evaluated as black boxes
//! and a streaming window keeps their raw values.
//!
//! Shipped operators: [`Sum`], [`Count`], [`Avg`], [`StdDev`],
//! [`Variance`] (incrementally removable + independent), [`Min`],
//! [`Max`] (merge-only), and [`Median`], [`Percentile`],
//! [`CountDistinct`] (black-box). [`BlackBox`] hides an operator's
//! exact state, for ablations of the §5.1 fast path.
//!
//! ```
//! use scorpion_agg::{Avg, Aggregate, IncrementalAggregate, Max};
//!
//! let avg = Avg;
//! let m = avg.state_of(&[35.0, 35.0, 100.0]);
//! // Remove the 100° reading without re-reading the kept tuples:
//! let m2 = avg.remove(&m, &avg.state_one(100.0));
//! assert_eq!(avg.recover(&m2), 35.0);
//!
//! // MAX merges per-chunk states but cannot remove one.
//! let max = Max.incremental().unwrap();
//! let mut total = max.state_of(&[3.0, 9.0]);
//! max.merge(&mut total, &max.state_of(&[5.0]));
//! assert_eq!(max.recover(&total), 9.0);
//! assert!(!max.removable());
//! ```

#![warn(missing_docs)]

mod arithmetic;
mod holistic;
mod order;
mod registry;
mod spread;
mod state;
mod traits;

pub use arithmetic::{Avg, Count, Sum};
pub use holistic::{CountDistinct, Percentile};
pub use order::{Max, Median, Min};
pub use registry::{aggregate_by_name, registered_names};
pub use spread::{StdDev, Variance};
pub use state::{AggState, MAX_STATE};
pub use traits::{AggProperties, Aggregate, BlackBox, IncrementalAggregate};
